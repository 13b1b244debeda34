import argparse
import ast
import contextlib
import functools
import hashlib
import inspect
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from jsonschema import Draft7Validator

import ratapprox
from ratapprox import cli
from ratapprox.approx import (ApproxSet, construct_psi, detect_line, fit_coefficients,
                              nearest_numerators, verify_order)
from ratapprox.cf import CFContext
from ratapprox.conic import periodic_construction, quad_detect
from ratapprox.errors import BlowUp
from ratapprox.ostrowski import delta_profile, ostrowski_real
from hypothesis import given, settings
from hypothesis import strategies as st

from ratapprox.cli import (CONFIG_FIELDS, approx_set_json, json_text, load_approx_set, main,
                           parse_psi, parse_target, read_config, schema_path, sci_str,
                           target_json, value_from_json)
from ratapprox.exactnum import KINDS, Certified, RatInterval, qi_normalize

from oracles import check_psi_document, gamma_interval

GOLDEN = {
    "cf-phi": ["cf", "--alpha", "quad:1,1,5,2", "--depth", "10"],
    "cf-rat": ["cf", "--alpha", "rat:10/7"],
    "convergents": ["convergents", "--alpha", "quad:0,1,2,1", "--n", "4"],
    "ostrowski-int": ["ostrowski-int", "--alpha", "quad:-1,1,5,2", "--s", "11"],
    "ostrowski-real": [
        "ostrowski-real", "--alpha", "quad:-1,1,5,2", "--gamma", "rat:0",
        "--depth", "8", "--allow-orbit",
    ],
    "dist": [
        "dist", "--alpha", "quad:-1,1,5,2", "--gamma", "rat:0", "--s", "5",
        "--allow-orbit",
    ],
    "line": ["line", "--a", "3", "--b", "7", "--d", "1", "--count", "3"],
    "conic-orbit": ["conic-orbit", "--form", "1,-1,-1", "--d", "1", "--count", "4"],
    "laurent": ["laurent", "--form", "1,-1,-1", "--d", "1", "--terms", "4"],
    "build-psi": ["build-psi", "--alpha", "quad:-1,1,5,2", "--psi", "power:2",
                   "--count", "2", "--with-pairs"],
    "build-psi-exp": ["build-psi", "--alpha", "quad:-1,1,5,2", "--psi", "exp:1/2",
                       "--count", "2"],
    "cf-dec": ["cf", "--alpha", "dec:0.6180339887±0.0000000001", "--depth", "8"],
    "dist-direct-only": ["dist", "--alpha", "quad:-1,1,5,2", "--gamma", "rat:0",
                          "--s", "2", "--allow-orbit"],
    "ostrowski-real-dec": ["ostrowski-real", "--alpha", "quad:-1,1,5,2", "--gamma",
                            "dec:0.0901699437±0.0000000001", "--depth", "6"],
    "build-periodic": ["build-periodic", "--alpha", "quad:-1,1,5,2", "--count", "6"],
    "growth": ["growth", "--s", "7,14,21,28"],
}


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_cf_phi_golden(capsys):
    code, out = run_cli(capsys, GOLDEN["cf-phi"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"a": [1] * 10, "K": 0, "L": 1}


def test_cf_rational_golden(capsys):
    code, out = run_cli(capsys, GOLDEN["cf-rat"])
    assert json.loads(out) == {"a": [1, 2, 3], "K": None, "L": None}


def test_conic_orbit_golden(capsys):
    code, out = run_cli(capsys, GOLDEN["conic-orbit"])
    doc = json.loads(out)
    assert doc["pairs"] == [["2", "1"], ["5", "3"], ["13", "8"], ["34", "21"]]
    assert doc["form"] == {"a": "1", "b": "-1", "c": "-1", "d": "1"}


def test_line_golden(capsys):
    code, out = run_cli(capsys, GOLDEN["line"])
    doc = json.loads(out)
    assert doc["pairs"] == [["1", "2"], ["4", "9"], ["7", "16"]]
    assert doc["gamma"] == [{"kind": "rat", "value": "1/7"}]


def test_build_psi_golden(capsys):
    code, out = run_cli(capsys, GOLDEN["build-psi"])
    doc = json.loads(out)
    assert doc["indices"] == [4, 12]
    assert doc["s"] == ["5", "238"]
    assert doc["certified"] is True
    assert doc["set"]["pairs"] == [["3", "5"], ["147", "238"]]


def test_every_command_deterministic_and_schema_valid(capsys):
    for name, argv in GOLDEN.items():
        code1, out1 = run_cli(capsys, argv)
        code2, out2 = run_cli(capsys, argv)
        assert code1 == code2 == 0, f"{name} failed: {out1}"
        assert out1 == out2, f"{name} output not byte-identical"
        command = argv[0]
        with open(schema_path(command), encoding="utf-8") as fh:
            schema = json.load(fh)
        Draft7Validator(schema).validate(json.loads(out1))


def test_domain_error_exit_code_and_schema(capsys):
    code, out = run_cli(
        capsys, ["ostrowski-real", "--alpha", "quad:-1,1,5,2", "--gamma", "rat:0",
                  "--depth", "6"]
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "GammaOnOrbit"
    with open(schema_path("error"), encoding="utf-8") as fh:
        Draft7Validator(json.load(fh)).validate(doc)


def test_invariant_violation_is_a_json_error(capsys, monkeypatch):
    import ratapprox.cli as cli
    from ratapprox.ostrowski import check_admissible

    # stand in for a broken expansion: the real check sees the digit s
    monkeypatch.setattr(cli, "ostrowski_int", lambda s, ctx: check_admissible([s], ctx))
    code, out = run_cli(capsys, GOLDEN["ostrowski-int"])
    assert code == 1
    doc = json.loads(out)
    assert doc == {"error": "InvariantViolation", "message": "c_1 = 11 must be < a_1 = 1"}
    with open(schema_path("error"), encoding="utf-8") as fh:
        Draft7Validator(json.load(fh)).validate(doc)


NOT_IRRATIONAL = {
    "build-psi": (["build-psi", "--alpha", "rat:1/3", "--psi", "power:2", "--count", "2"],
                  "RationalTarget", "the construction needs an irrational alpha"),
    "build-periodic-rat": (["build-periodic", "--alpha", "rat:1/3", "--count", "3"],
                           "NotPeriodic", "periodic construction needs a quadratic irrational"),
    "build-periodic-dec": (["build-periodic", "--alpha", "dec:0.3±0.01", "--count", "3"],
                           "NotPeriodic", "periodic construction needs a quadratic irrational"),
    "ostrowski-int": (["ostrowski-int", "--alpha", "rat:1/3", "--s", "5"],
                      "RationalTarget", "Ostrowski expansions need an irrational alpha"),
    "ostrowski-real": (["ostrowski-real", "--alpha", "rat:1/3", "--gamma", "rat:0", "--depth", "4"],
                       "RationalTarget", "Ostrowski expansions need an irrational alpha"),
    "dist": (["dist", "--alpha", "rat:1/3", "--gamma", "rat:0", "--s", "5"],
             "RationalTarget", "Ostrowski expansions need an irrational alpha"),
}


@pytest.mark.parametrize("case", sorted(NOT_IRRATIONAL))
def test_alpha_that_is_not_irrational_is_a_json_error(capsys, case):
    argv, error, message = NOT_IRRATIONAL[case]
    code, out = run_cli(capsys, argv)
    assert code == 1
    assert out == json.dumps({"error": error, "message": message}, indent=2) + "\n"


@pytest.mark.parametrize("literal", ["1/0", "0/0", "-7/0"])
@pytest.mark.parametrize("flag", ["--alpha", "--gamma"])
def test_rat_target_with_zero_denominator_is_a_value_error(capsys, flag, literal):
    targets = {"--alpha": "quad:-1,1,5,2", "--gamma": "rat:1/3", flag: f"rat:{literal}"}
    argv = ["dist", "--alpha", targets["--alpha"], "--gamma", targets["--gamma"], "--s", "5"]
    code, out = run_cli(capsys, argv)
    assert code == 1
    doc = {"error": "ValueError", "message": f"zero denominator in rational {literal!r}"}
    assert out == json.dumps(doc, indent=2) + "\n"
    if flag == "--alpha":
        assert run_cli(capsys, ["cf", "--alpha", f"rat:{literal}"]) == (code, out)


def test_zero_denominator_in_a_psi_or_config_rational_is_named(tmp_path, capsys):
    # each rational literal of --psi exp:, a table: row and a config line
    # goes through parse_rational, which names the literal
    message = "zero denominator in rational '1/0'"
    psi = ["build-psi", "--alpha", "quad:-1,1,5,2", "--count", "1", "--psi"]
    table = tmp_path / "table.json"
    table.write_text('[[1, "1/10"], [6, "1/0"]]')
    config = tmp_path / "ratapprox.cfg"
    config.write_text("decay_tolerance = 1/0\n")
    for argv, expected in [
        ([*psi, "exp:1/0"], message),
        ([*psi, f"table:{table}"], f"malformed input file {table}: ValueError {message}"),
        (["--config", str(config), "cf", "--alpha", "rat:1/2"], message),
    ]:
        code, out = run_cli(capsys, argv)
        assert (code, json.loads(out)) == (1, {"error": "ValueError", "message": expected}), argv
    # the flag is a usage error, as argparse reports a value its type refuses
    with pytest.raises(SystemExit) as exc:
        main(["--decay-tolerance", "1/0", "cf", "--alpha", "rat:1/2"])
    assert exc.value.code == 2
    assert "argument --decay-tolerance: invalid" in capsys.readouterr().err


def test_zero_denominator_in_a_set_file_or_dec_radius_is_named(tmp_path, capsys):
    # a set file's rat gamma and interval ends, and a dec: literal's center
    # and radius, go through parse_rational; read_input names the file
    message = "zero denominator in rational '1/0'"
    base = {"alpha": {"kind": "quad", "value": {"P": "-1", "e": "1", "D": "5", "Q": "2"}},
            "N": 1, "pairs": [["1", "2"], ["2", "3"], ["3", "5"]]}
    for name, gamma in [("rat", {"kind": "rat", "value": "1/0"}),
                        ("interval", {"kind": "interval", "value": {"lo": "0", "hi": "1/0"}})]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**base, "gamma": [gamma]}))
        code, out = run_cli(capsys, ["approx-verify", "--set", str(path)])
        expected = f"malformed input file {path}: ValueError {message}"
        assert (code, json.loads(out)) == (1, {"error": "ValueError", "message": expected})
    for literal in ["dec:0.5±1/0", "dec:1/0±1/10"]:
        code, out = run_cli(capsys, ["cf", "--alpha", literal])
        assert (code, json.loads(out)) == (1, {"error": "ValueError", "message": message})


def test_package_runs_as_the_cli_module():
    # python -m ratapprox and python -m ratapprox.cli: the same bytes and exit code
    src = os.path.dirname(os.path.dirname(os.path.abspath(ratapprox.__file__)))
    argv = ["cf", "--alpha", "quad:1,1,5,2", "--depth", "10"]
    runs = [subprocess.run([sys.executable, "-S", "-m", module, *argv], capture_output=True,
                           env=dict(os.environ, PYTHONPATH=src), timeout=60)
            for module in ("ratapprox", "ratapprox.cli")]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["a"] == [1] * 10


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["cf"])  # missing --alpha
    assert exc.value.code == 2


def test_blowup_is_reported(capsys):
    code, out = run_cli(
        capsys,
        ["--digit-budget", "12", "build-psi", "--alpha", "quad:-1,1,5,2",
         "--psi", "power:3", "--count", "8"],
    )
    assert code == 1
    assert json.loads(out)["error"] == "BlowUp"


def test_build_psi_table_threshold_of_exactly_budget_digits_is_within_budget(tmp_path, capsys):
    # Psi = 1048575/D, D = (2**13321 + 1)/3: 3/Psi = 3D/1048575 scores 13,301
    # in the bit-length test and has exactly 4,004 digits, so it is not past a
    # 4004-digit budget; 0.30103 in that test claimed it was (BlowUp)
    D = (2**13321 + 1) // 3
    assert 10**4003 * 1048575 <= 3 * D < 10**4004 * 1048575
    table = tmp_path / "psi.json"
    table.write_text(json.dumps([[1, f"1048575/{D}"]]))
    code, out = run_cli(capsys, ["--digit-budget", "4004", "build-psi", "--alpha",
                                 "quad:-1,1,5,2", "--psi", f"table:{table}", "--count", "2"])
    doc = json.loads(out)
    assert (code, doc["indices"], doc["n_next"], doc["certified"]) == (0, [4, 19160], 19162, True)
    # oracle: 1/phi has q_n = F_{n+1}, and n_2 is the least n > 5 with q_n >= 3/Psi
    q = [1, 1]
    while q[-1] * 1048575 < 3 * D:
        q.append(q[-1] + q[-2])
    assert len(q) - 1 == 19160


def test_digit_budget_admits_a_denominator_of_one_more_digit(capsys):
    # the search admits q_m while floor(0.30103 * bit length of q_m) <= the
    # budget: q_60 = F_61 = 2504730781961 has 41 bits and 13 digits, budget 12
    code, out = run_cli(capsys, ["--digit-budget", "12", "build-psi", "--alpha",
                                 "quad:-1,1,5,2", "--psi", "power:2", "--count", "3"])
    doc = json.loads(out)
    assert (code, doc["indices"], doc["n_next"]) == (0, [4, 12, 28], 60)
    q = [1, 1]
    while len(q) <= 60:
        q.append(q[-1] + q[-2])
    assert q[60] == 2504730781961 and q[60].bit_length() * 30103 // 100000 == 12


# build-psi calls with a 10**-b tail, b up to 100,000 (the first is
# acceptance 6), as (argv, stdout bytes, stdout sha256); every bound and
# interval end prints as a 50-digit decimal rounded outward, the tail as 1e-b
TAIL_PINS = {
    "acceptance-6": (["build-psi", "--alpha", "quad:-1,1,5,2", "--psi", "exp:1", "--count", "3"],
                     32_164, "b5704fc58c147f7c5f8c7baecf5c354bb4379a8d5d24a21f408c526ee61d7ef7"),
    "acceptance-6-pairs": (["build-psi", "--alpha", "quad:-1,1,5,2", "--psi", "exp:1",
                            "--count", "3", "--with-pairs"],
                           48_114,
                           "755ed30c843ad4e3b66ec0e6697be46e48428c2aec7fdf45cd5eb218c306acdb"),
    "exp-half": (["build-psi", "--alpha", "quad:-1,1,5,2", "--psi", "exp:1/2", "--count", "3"],
                 1_716, "abcdcc9975ad8c8137a04af7a7321e596ea6df209a0750d0a398a2679ea4faef"),
    "budget-14850": (["--digit-budget", "14850", "build-psi", "--alpha", "quad:-8,1,67,1",
                      "--psi", "exp:1/2", "--count", "2"],
                     1_314, "d23e6a441ecdba961901e871c2bce48936e3cf0b33ccfaf3cb3cba5bac3abf93"),
}


@pytest.mark.parametrize("case", sorted(TAIL_PINS))
def test_build_psi_tail_output_is_pinned(capsys, case):
    argv, size, digest = TAIL_PINS[case]
    code, out = run_cli(capsys, argv)
    data = out.encode()
    assert (code, len(data), hashlib.sha256(data).hexdigest()) == (0, size, digest)


# build-psi calls with --pairs-out, as (argv, stdout bytes and sha256, file
# bytes and sha256); exp:1 writes gamma_1 with 50-digit ends of 1e-100000 width
PAIRS_OUT_PINS = {
    "exp": (["build-psi", "--alpha", "quad:-1,1,5,2", "--psi", "exp:1", "--count", "3"],
            48_114, "755ed30c843ad4e3b66ec0e6697be46e48428c2aec7fdf45cd5eb218c306acdb",
            15_872, "da835813214466b6834e971c078941a6b41553b7a61546f603dbfc591df58880"),
    "power": (["build-psi", "--alpha", "quad:-1,1,5,2", "--psi", "power:3", "--count", "3"],
              2_066, "5f1314fff2bb1d7c0d4a5d1d4973cf9f64d39e944c3dafb9cd50a4acafe041f3",
              506, "54cdf81f583d020507464d06bd9bbe3ca66a1d128dfcd25f56b5ccced797b8e7"),
}


@pytest.mark.parametrize("case", sorted(PAIRS_OUT_PINS))
def test_build_psi_pairs_out_is_pinned(tmp_path, capsys, case):
    argv, out_size, out_digest, file_size, file_digest = PAIRS_OUT_PINS[case]
    path = tmp_path / "pairs.json"
    code, out = run_cli(capsys, [*argv, "--pairs-out", str(path)])
    data, written = out.encode(), path.read_bytes()
    assert (code, len(data), hashlib.sha256(data).hexdigest()) == (0, out_size, out_digest)
    assert (len(written), hashlib.sha256(written).hexdigest()) == (file_size, file_digest)


def _last_digit_unit(text: str) -> Fraction:
    """The unit of the 50th significant digit of a printed decimal d.ddd...e<exp>."""
    return Fraction(10) ** (int(text.split("e")[1]) - 49)


@pytest.mark.parametrize("budget, alpha, psi, count", [
    (3000, "quad:-1,1,5,2", "exp:1", 2),
    # the tail's 10**-45 reaches the 50 printed digits: each end is summed exactly
    (45, "quad:-1,1,5,2", "exp:1", 2),
    (100_000, "quad:-1,1,5,2", "power:3", 3),
    (100_000, "dec:0.6180339887498948482045868343656381177203±1e-40", "power:2", 2),
], ids=["exp", "exp-short-tail", "power", "dec"])
def test_build_psi_pairs_print_gamma1_without_the_exact_interval(capsys, budget, alpha, psi,
                                                                 count):
    # the set's gamma_1 is minus the enclosure of gamma, which the CLI prints
    # from its (head, b) ends rounded outward; the reference forms the exact
    # interval, and each printed end lies outside it by less than a unit of
    # its 50th digit
    cons = construct_psi(parse_target(alpha), parse_psi(psi), count, digit_budget=budget)
    iv = gamma_interval(cons)
    expected = approx_set_json(nearest_numerators(cons.alpha, cons.s))
    code, out = run_cli(capsys, ["--digit-budget", str(budget), "build-psi", "--alpha", alpha,
                                 "--psi", psi, "--count", str(count), "--with-pairs"])
    assert code == 0, out
    aset = json.loads(out)["set"]
    assert {**aset, "gamma": []} == {**expected, "N": 1}
    [gamma1] = aset["gamma"]
    assert gamma1["kind"] == "interval"
    lo, hi = (gamma1["value"][end] for end in ("lo", "hi"))
    assert 0 <= -iv.hi - Fraction(lo) < _last_digit_unit(lo)
    assert 0 <= Fraction(hi) + iv.lo < _last_digit_unit(hi)


@pytest.mark.parametrize("argv", [*(argv for argv, *_ in TAIL_PINS.values()),
                                  *(argv for argv, *_ in PAIRS_OUT_PINS.values())],
                         ids=[*TAIL_PINS, *(f"pairs-out-{case}" for case in PAIRS_OUT_PINS)])
def test_build_psi_document_passes_the_independent_check(capsys, argv):
    # the printed interval holds partial +- tail_bound, and no line fails;
    # every line but the last (whose distance is 0) is checked from the
    # printed facts alone
    code, out = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    contains, statuses = check_psi_document(doc)
    assert contains
    assert statuses == ["checked"] * (len(statuses) - 1) + ["construction"]


def _assert_holds_no_ten_power(cons) -> None:
    """Every number the construction stores (the tail's head, each
    certificate bound's head and each (n, d) pair of gamma_interval_ends) has
    fewer than b bits, b the tail's exponent: 10**-b is kept as b, never
    formed."""
    b = cons.tail[1]
    pairs = [cons.tail[0].as_integer_ratio(),
             *(line.bound[0].as_integer_ratio() for line in cons.certificate if line.bound),
             *(pair for pair, _ in cons.gamma_interval_ends())]
    sizes = [max(n.bit_length(), d.bit_length()) for n, d in pairs]
    assert b is not None and max(sizes) < b, (b, sizes)


def _construction(argv: list[str]):
    """The construction (or BlowUp partial) of a build-psi argv with its flags
    in the order of TAIL_PINS."""
    flags = dict(zip(argv[::2], argv[1::2]))
    budget = int(flags.get("--digit-budget", "100000"))
    try:
        return construct_psi(parse_target(flags["--alpha"]), parse_psi(flags["--psi"]),
                             int(flags["--count"]), digit_budget=budget)
    except BlowUp as exc:
        return exc.partial


@pytest.mark.parametrize("case", ["acceptance-6", "acceptance-6-pairs", "budget-14850"])
def test_build_psi_never_forms_the_ten_power_tail(capsys, case):
    # the tail 10**-b and the bounds that carry it stay (head, b) pairs, and
    # the CLI prints head +- 10**-b rounded outward without forming 10**b
    argv, size, digest = TAIL_PINS[case]
    cons = _construction([a for a in argv if a not in ("build-psi", "--with-pairs")])
    _assert_holds_no_ten_power(cons)
    assert any(line.route == "numeric" and line.bound[1] == cons.tail[1]
               for line in cons.certificate)
    code, out = run_cli(capsys, argv)
    data = out.encode()
    assert (code, len(data), hashlib.sha256(data).hexdigest()) == (0, size, digest)


def test_build_psi_blowup_never_forms_the_ten_power_tail(capsys):
    # the BlowUp's partial construction caps its tail at 10**-100000 too,
    # and keeps only the exponent
    argv = ["build-psi", "--alpha", "quad:-1,1,5,2", "--psi", "exp:1000000", "--count", "2"]
    code, out = run_cli(capsys, argv)
    assert (code, json.loads(out)["error"]) == (1, "BlowUp")
    cons = _construction(argv[1:])
    assert cons.tail == (0, 100_000)
    _assert_holds_no_ten_power(cons)


def _unit_quad(D: int, Q: int) -> str:
    """frac(sqrt(D)/Q) as a quad: target (rational when D is a square)."""
    return f"quad:{-Q * (math.isqrt(D) // Q)},1,{D},{Q}"


# valid flags, of which one in about half the draws is replaced by a value
# that the library or the parser refuses
_FUZZ_VALID = st.fixed_dictionaries({
    "--alpha": st.builds(_unit_quad, st.integers(2, 400), st.integers(1, 4)),
    "--psi": st.one_of(st.builds("exp:{}/{}".format, st.integers(1, 3000), st.integers(1, 1000)),
                       st.builds("power:{}".format, st.integers(1, 5))),
    "--count": st.integers(1, 3),
    "--digit-budget": st.integers(1, 3000),
})
_FUZZ_BAD = st.one_of(
    st.integers(-2, 0), st.just("two"),
    st.builds("quad:{},{},{},{}".format, st.integers(-9, 9), st.integers(-3, 3),
              st.integers(-2, 40), st.integers(-3, 4)),
    st.sampled_from(["exp:0", "exp:-1/2", "exp:1/0", "power:0", "power:x", "rat:1/2"]),
)


@settings(max_examples=150, deadline=None)
@given(flags=_FUZZ_VALID, pairs=st.booleans(), bad=st.none() | st.tuples(
    st.sampled_from(["--alpha", "--psi", "--count", "--digit-budget"]), _FUZZ_BAD))
def test_build_psi_fuzz_answers_with_one_json_document(flags, pairs, bad):
    if bad is not None:
        flags = {**flags, bad[0]: bad[1]}
    argv = ["--digit-budget", str(flags["--digit-budget"]), "build-psi",
            *(f"{flag}={flags[flag]}" for flag in ("--alpha", "--psi", "--count")),
            *(["--with-pairs"] if pairs else [])]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "" and "usage:" in err.getvalue()
    else:
        doc = json.loads(out.getvalue())  # exactly one document
        assert ("error" in doc) == (code == 1), argv
    if code == 0:
        contains, statuses = check_psi_document(doc)
        assert contains and "failed" not in statuses, (argv, statuses)


# convergents p_n/q_n of 1/phi, n = 1..8
PHI_PAIRS = [[1, 1], [1, 2], [2, 3], [3, 5], [5, 8], [8, 13], [13, 21], [21, 34]]


_FUZZ_INT = st.integers(-3, 40)
_FUZZ_TARGET = st.one_of(
    st.builds(_unit_quad, st.integers(2, 400), st.integers(1, 4)),
    st.builds("rat:{}/{}".format, st.integers(-30, 30), st.integers(-2, 30)),
    st.builds("quad:{},{},{},{}".format, st.integers(-9, 9), st.integers(-3, 3),
              st.integers(-2, 40), st.integers(-3, 4)),
    st.builds("dec:{}.{:04d}±1e-{}".format, st.integers(-3, 3), st.integers(0, 9999),
              st.integers(1, 12)),
    # an enclosure that straddles the integer n, so that a_0 is undecided
    st.builds("dec:{}±1e-{}".format, st.integers(-3, 3), st.integers(1, 6)),
)
# mostly in [0, 1), where the Ostrowski commands take it
_FUZZ_GAMMA = st.one_of(st.builds("rat:{}/{}".format, st.integers(0, 12), st.integers(13, 40)),
                        _FUZZ_TARGET)
_FUZZ_PAIRS = st.one_of(st.just(PHI_PAIRS), st.lists(
    st.tuples(st.integers(-60, 60), st.integers(-3, 60)).map(list), max_size=8))
_FUZZ_FORM = st.one_of(st.just("1,-1,-1"), st.builds(
    "{},{},{}".format, st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)))
# each subcommand but build-psi (fuzzed above), with a strategy per flag;
# PAIRS and SET stand for files written from the drawn pairs
_FUZZ_COMMANDS = {
    "cf": {"--alpha": _FUZZ_TARGET, "--depth": _FUZZ_INT},
    "convergents": {"--alpha": _FUZZ_TARGET, "--n": _FUZZ_INT},
    "ostrowski-int": {"--alpha": _FUZZ_TARGET, "--s": st.integers(-3, 10**6)},
    "ostrowski-real": {"--alpha": _FUZZ_TARGET, "--gamma": _FUZZ_GAMMA, "--depth": _FUZZ_INT},
    "dist": {"--alpha": _FUZZ_TARGET, "--gamma": _FUZZ_GAMMA, "--s": st.integers(-3, 10**6),
             "--depth": _FUZZ_INT, "--width-digits": _FUZZ_INT},
    "approx-fit": {"--alpha": _FUZZ_TARGET, "--order": st.integers(-1, 4), "--pairs": "PAIRS"},
    "approx-verify": {"--set": "SET"},
    "line": {"--a": st.integers(-9, 9), "--b": st.integers(-3, 9), "--d": st.integers(-9, 9),
             "--count": st.integers(-2, 8)},
    "detect-line": {"--pairs": "PAIRS"},
    "conic-orbit": {"--form": _FUZZ_FORM, "--d": st.integers(-12, 12),
                    "--count": st.integers(-2, 6)},
    "laurent": {"--form": _FUZZ_FORM, "--d": st.integers(-12, 12), "--terms": st.integers(-2, 5)},
    "build-periodic": {"--alpha": _FUZZ_TARGET, "--count": st.integers(-2, 8)},
    "detect-quad": {"--pairs": "PAIRS"},
    "growth": {"--s": st.lists(st.integers(-3, 200), max_size=6).map(
        lambda s: ",".join(map(str, s))), "--pairs": "PAIRS"},
}
_FUZZ_CSV = {"approx-fit", "approx-verify", "build-periodic"}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_every_other_command_fuzz_answers_with_one_document(data):
    command = data.draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    pairs = data.draw(_FUZZ_PAIRS)
    order = data.draw(st.integers(-1, 2))
    gamma = [{"kind": "rat", "value": f"{data.draw(st.integers(-9, 9))}/7"}
             for _ in range(max(order, 0))]
    alpha = data.draw(st.sampled_from([{"kind": "rat", "value": "3/7"},
                                       {"kind": "quad", "value": {"P": "1", "e": "1", "D": "5",
                                                                   "Q": "2"}}]))
    with tempfile.TemporaryDirectory() as tmp:
        files = {"PAIRS": Path(tmp, "pairs.json"), "SET": Path(tmp, "set.json")}
        files["PAIRS"].write_text(json.dumps({"pairs": pairs}))
        files["SET"].write_text(json.dumps({"alpha": alpha, "N": order, "gamma": gamma,
                                            "pairs": pairs}))
        argv = [command]
        for flag, values in _FUZZ_COMMANDS[command].items():
            # growth takes --s or --pairs; drop each one in a while
            if command == "growth" and data.draw(st.booleans()):
                continue
            value = files[values] if isinstance(values, str) else data.draw(values)
            argv.append(f"{flag}={value}")
        csv = command in _FUZZ_CSV and data.draw(st.booleans())
        argv += ["--csv"] if csv else []
        if command in ("ostrowski-real", "dist") and data.draw(st.booleans()):
            argv.append("--allow-orbit")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2), argv
    text = out.getvalue()
    if code == 2:
        assert text == "" and "usage:" in err.getvalue(), argv
    elif code == 0 and csv:
        assert text.startswith("s,r,residual,scaled_residual\n"), argv
    else:
        doc = json.loads(text)  # exactly one document
        assert ("error" in doc) == (code == 1), argv


def _fresh_cli(argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ratapprox.__file__)))
    child = subprocess.run([sys.executable, "-m", "ratapprox.cli", *argv], capture_output=True,
                           text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    return child.returncode, child.stdout


def test_main_reuses_its_parser_without_carrying_state(capsys):
    # main builds its parser once per process: no call may see what an
    # earlier one parsed, failed on or set
    sequence = [
        ["cf", "--alpha"],  # usage error, exit 2
        GOLDEN["cf-phi"],
        ["--digit-budget", "20", "build-psi", "--alpha", "quad:-1,1,5,2", "--psi", "exp:1/2",
         "--count", "2"],
        GOLDEN["build-psi-exp"],
        ["cf", "--alpha", "rat:1/0"],  # exit 1
        GOLDEN["build-psi"],
    ]
    codes = []
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        assert (code, out) == _fresh_cli(argv), argv
        codes.append(code)
    assert codes == [2, 0, 0, 0, 1, 0]


def test_importing_cli_builds_no_parser():
    # each parser is built on the first call that needs it, not at import:
    # the per-command cache starts empty
    src = os.path.dirname(os.path.dirname(os.path.abspath(ratapprox.__file__)))
    code = (
        "import sys\n"
        "calls = []\n"
        "def seen(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code.co_name == 'build_parser':\n"
        "        calls.append(frame)\n"
        "sys.setprofile(seen)\n"
        "import ratapprox.cli\n"
        "sys.setprofile(None)\n"
        "print(len(calls), ratapprox.cli._parsers)\n"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True).stdout
    assert out == "0 {}\n"


def _main_outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


# the help and usage errors a parser with one subcommand must print as one
# with all of them does: the top-level help, each subcommand's help, a
# missing and an unknown command, and the errors that print the top-level
# usage line or a subcommand's
USAGE_ARGVS = [
    ["--help"], *([name, "--help"] for name in cli.COMMANDS), [], ["no-such-command"],
    ["--digit-budget", "x", "cf", "--alpha", "rat:1/2"],
    ["--bogus", "1", "cf", "--alpha", "rat:1/2"],
    ["cf", "--alpha", "rat:1/2", "--bogus"],
    ["cf", "--alpha"],
]


@pytest.mark.parametrize("columns", [None, "60", "200"])
def test_usage_and_help_match_the_parser_of_every_subcommand(columns, capsys, monkeypatch):
    # the reference builds every subcommand's parser and formats with
    # argparse's own HelpFormatter, whose width comes from shutil
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    monkeypatch.setattr(cli, "_parsers", {})
    got = [_main_outcome(capsys, argv) for argv in USAGE_ARGVS]
    build = cli.build_parser
    monkeypatch.setattr(cli, "_parsers", {})
    monkeypatch.setattr(cli, "_HelpFormatter", argparse.HelpFormatter)
    monkeypatch.setattr(cli, "build_parser", lambda command: build(None))
    want = [_main_outcome(capsys, argv) for argv in USAGE_ARGVS]
    assert got == want
    assert [code for code, _, _ in got] == [0] * (1 + len(cli.COMMANDS)) + [2] * 6
    assert "{" + ",".join(cli.COMMANDS) + "}" in got[-4][2]


@pytest.mark.parametrize("columns", [None, "60", "200", "1", "0", "-4", "wide"])
@pytest.mark.parametrize("terminal", [None, 0, 123])
def test_terminal_columns_is_the_width_shutil_reads(columns, terminal, monkeypatch):
    # terminal: the width os.get_terminal_size reports, None when stdout is
    # not a terminal
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)

    def size(fd):
        if terminal is None:
            raise OSError("not a terminal")
        return os.terminal_size((terminal, 40))

    monkeypatch.setattr(os, "get_terminal_size", size)
    assert cli._terminal_columns() == shutil.get_terminal_size().columns
    # and the layout argparse's own formatter would take from it
    ours, theirs = cli._HelpFormatter("ratapprox"), argparse.HelpFormatter("ratapprox")
    assert ((ours._width, ours._max_help_position, ours._indent_increment)
            == (theirs._width, theirs._max_help_position, theirs._indent_increment))


def test_build_parser_adds_only_the_named_subcommand():
    # its top-level options are the ones main's argv scan knows
    for command in (*cli.COMMANDS, None):
        parser = cli.build_parser(command)
        assert {flag: action.nargs != 0 for flag, action in
                parser._option_string_actions.items()} == cli._TOP_OPTIONS
        sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == ([command] if command else list(cli.COMMANDS))
        for name, p in sub.choices.items():
            assert p.get_default("handler") is getattr(cli, "_cmd_" + name.replace("-", "_"))


# an argv, a flag it leaves out, and the flag's default; the call prints
# something else at the default plus one
FLAG_DEFAULTS = [
    (["cf", "--alpha", "quad:1,1,5,2"], "--depth", 32),
    (["convergents", "--alpha", "quad:0,1,2,1"], "--n", 10),
    (["ostrowski-real", "--alpha", "quad:-1,1,5,2", "--gamma", "rat:1/3"], "--depth", 24),
    # gamma is {(7 + F_24)·alpha}, whose digits part from those of s = 7 at 24
    (["dist", "--alpha", "quad:-1,1,5,2", "--gamma", "quad:-167776,75032,5,2", "--s", "7",
      "--allow-orbit"], "--depth", 24),
    (["dist", "--alpha", "quad:-1,1,5,2", "--gamma", "rat:1/3", "--s", "1000"],
     "--width-digits", 30),
    (["laurent", "--form", "1,-1,-1", "--d", "1"], "--terms", 4),
]


@pytest.mark.parametrize("argv, flag, default", FLAG_DEFAULTS,
                         ids=[f"{argv[0]}{flag}" for argv, flag, _ in FLAG_DEFAULTS])
def test_subcommand_flag_defaults(capsys, argv, flag, default):
    left_out = run_cli(capsys, argv)
    assert left_out == run_cli(capsys, argv + [flag, str(default)])
    assert left_out != run_cli(capsys, argv + [flag, str(default + 1)])
    assert left_out[0] == 0


def test_fresh_file_call_reads_its_file(tmp_path):
    # json is imported by read_input alone, in a process that has not
    # loaded it before
    src = os.path.dirname(os.path.dirname(os.path.abspath(ratapprox.__file__)))
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps([[3 * s + 1, 7 * s] for s in range(1, 9)]))
    child = subprocess.run([sys.executable, "-S", "-m", "ratapprox", "detect-line", "--pairs",
                            str(pairs)], capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == {
        "line": {"a": "3", "b": "7", "d": "7", "exceptions": 0}}


def test_pairs_file_roundtrip(tmp_path, capsys):
    code, out = run_cli(capsys, ["line", "--a", "3", "--b", "7", "--d", "1",
                                  "--count", "8"])
    set_file = tmp_path / "line.json"
    set_file.write_text(out)
    code, out = run_cli(capsys, ["detect-line", "--pairs", str(set_file)])
    assert json.loads(out)["line"] == {"a": "3", "b": "7", "d": "1", "exceptions": 0}
    code, out = run_cli(capsys, ["approx-verify", "--set", str(set_file)])
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["verdict"] == "PASS"
    code, out = run_cli(capsys, ["detect-quad", "--pairs", str(set_file)])
    assert json.loads(out)["form"] is None


def test_detect_quad_cli(tmp_path, capsys):
    code, out = run_cli(capsys, ["conic-orbit", "--form", "1,-1,-1", "--d", "1",
                                  "--count", "6"])
    pair_file = tmp_path / "orbit.json"
    pair_file.write_text(out)
    code, out = run_cli(capsys, ["detect-quad", "--pairs", str(pair_file)])
    assert json.loads(out)["form"] == {"a": "1", "b": "-1", "c": "-1", "d": "1"}


def test_approx_fit_csv(tmp_path, capsys):
    code, out = run_cli(capsys, ["line", "--a", "1", "--b", "2", "--d", "1",
                                  "--count", "6"])
    set_file = tmp_path / "pairs.json"
    set_file.write_text(out)
    code, out = run_cli(
        capsys,
        ["approx-fit", "--alpha", "rat:1/2", "--order", "1", "--pairs",
         str(set_file), "--csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,r,residual,scaled_residual"
    assert all(line.endswith(",0,0") for line in lines[1:])


def test_config_roundtrip():
    # every key of the table, typed like its default; comments and blank lines skipped
    values = {name: default + 7 for name, default in CONFIG_FIELDS}
    text = "".join(f"{name} = {value}  # set\n\n" for name, value in values.items())
    again = read_config(text)
    assert again == values
    assert [type(v) for v in again.values()] == [type(d) for _, d in CONFIG_FIELDS]
    assert read_config("# nothing set\n") == {}
    with pytest.raises(ValueError, match="unknown config key: bogus_key"):
        read_config("bogus_key = 3\n")
    with pytest.raises(ValueError, match="config digit_budget must be positive"):
        read_config("digit_budget = -5\n")
    with pytest.raises(ValueError, match="unknown config key: orbit_bound"):
        read_config("orbit_bound = 5\n")


# per knob: a call whose output the knob decides, a value other than the
# default that changes that output, and fields of that output as (with the
# value, at the default); a field the output lacks reads None
KNOB_PROBES = {
    "precision_digits": (["ostrowski-real", "--alpha", "quad:-1,1,5,2", "--gamma",
                          "dec:0.1234567890123456789012345678901234567890±1e-40",
                          "--depth", "24"], "3", {}),
    "decay_window": (["build-periodic", "--alpha", "quad:-1,1,5,2", "--count", "6"], "3",
                     {("report", "window"): (3, 5)}),
    "decay_tolerance": (["build-periodic", "--alpha", "quad:-1,1,5,2", "--count", "6"], "1/7",
                        {("report", "rel_tolerance"): ("1/7", "1/1000"),
                         ("report", "note"): ("final scaled residual below 1/7 of the first",
                                              "final scaled residual below 1/1000 of the first")}),
    "digit_budget": (["build-psi", "--alpha", "quad:-1,1,5,2", "--psi", "exp:1/2",
                      "--count", "2"], "1", {}),
    # d = -11 on this form needs the seed (1, 3)
    "seed_bound": (["conic-orbit", "--form", "1,-1,-1", "--d", "-11", "--count", "3"], "2",
                   {("message",): ("no seed with s <= 2 represents -11", None)}),
    # the line 7r = 3s + 1 with its first two pairs moved off it
    "prefix_exceptions": (["detect-line", "--pairs", "PAIRS"], "1", {}),
}


@pytest.mark.parametrize("name, default", CONFIG_FIELDS, ids=[name for name, _ in CONFIG_FIELDS])
def test_every_knob_takes_the_same_precedence(name, default, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("RATAPPROX_CONFIG", raising=False)
    pairs = tmp_path / "pairs.json"
    pairs.write_text("[[6, 2], [9, 9], [7, 16], [10, 23], [13, 30], [16, 37]]")
    argv, value, fields = KNOB_PROBES[name]
    argv = [str(pairs) if a == "PAIRS" else a for a in argv]
    flag = "--" + name.replace("_", "-")

    def config(stem, text):
        path = tmp_path / f"{stem}.cfg"
        path.write_text(text)
        return str(path)

    given = run_cli(capsys, [flag, value, *argv])
    # the default applies when neither a flag nor a file sets the knob, and
    # the probe's value changes the output
    unset = run_cli(capsys, argv)
    assert unset == run_cli(capsys, [flag, str(default), *argv]) != given
    docs = json.loads(given[1]), json.loads(unset[1])
    for path, want in fields.items():
        assert tuple(functools.reduce(lambda d, key: d.get(key), path, doc)
                     for doc in docs) == want, path
    # a file through --config or the environment reads like the flag
    same, other = config("same", f"{name} = {value}\n"), config("other", f"{name} = {default}\n")
    assert run_cli(capsys, ["--config", same, *argv]) == given
    monkeypatch.setenv("RATAPPROX_CONFIG", same)
    assert run_cli(capsys, argv) == given
    # the flag beats the file, and --config beats the environment
    monkeypatch.setenv("RATAPPROX_CONFIG", other)
    assert run_cli(capsys, [flag, value, *argv]) == given
    assert run_cli(capsys, [flag, value, "--config", other, *argv]) == given
    assert run_cli(capsys, ["--config", same, *argv]) == given
    monkeypatch.delenv("RATAPPROX_CONFIG")
    # a non-positive file value is refused even where its flag is given, and an
    # unknown key is reported before a value that is not positive
    for stem, text, message in [
            ("zero", f"{name} = 0\n", f"config {name} must be positive"),
            ("unknown", f"{name} = -1\nbogus_key = 1\n", "unknown config key: bogus_key")]:
        code, out = run_cli(capsys, [flag, value, "--config", config(stem, text), *argv])
        assert (code, json.loads(out)) == (1, {"error": "ValueError", "message": message})
    code, out = run_cli(capsys, [f"{flag}=0", *argv])
    assert (code, json.loads(out)) == (
        1, {"error": "ValueError", "message": f"config {name} must be positive"})


def test_removed_ostrowski_int_depth_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ostrowski-int", "--alpha", "quad:-1,1,5,2", "--s", "11", "--depth", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --depth" in capsys.readouterr().err


def test_ostrowski_int_certifies_only_the_digits_it_reads(capsys):
    # the enclosure decides 23 digits, and s = 100 needs about a dozen: only
    # those are certified
    code, out = run_cli(capsys, ["ostrowski-int", "--alpha", "dec:0.6180339887±1e-10", "--s", "100"])
    assert code == 0, out
    assert json.loads(out)["M"] == 10


def test_ostrowski_real_certifies_only_the_digits_it_reads(capsys):
    # the enclosure decides 23 digits; 22 Ostrowski digits read a_1..a_22
    alpha = "dec:0.6180339887±1e-10"
    code, out = run_cli(capsys, ["ostrowski-real", "--alpha", alpha, "--gamma", "rat:1/3",
                                 "--depth", "22"])
    assert code == 0, out
    expected = ostrowski_real(Fraction(1, 3), CFContext(parse_target(alpha)), 22)
    assert json.loads(out)["digits"] == expected.b


REFUSALS = {
    "cf-depth-0": (["cf", "--alpha", "quad:1,1,5,2", "--depth", "0"], "depth must be >= 1"),
    "convergents-n-minus-1": (["convergents", "--alpha", "quad:0,1,2,1", "--n", "-1"],
                              "--n must be >= 0"),
    "dist-depth-0": (["dist", "--alpha", "quad:-1,1,5,2", "--gamma", "rat:1/3", "--s", "5",
                      "--depth", "0"], "depth must be >= 1"),
    "dist-depth-minus-4": (["dist", "--alpha", "quad:-1,1,5,2", "--gamma", "rat:1/3", "--s", "5",
                            "--depth", "-4"], "depth must be >= 1"),
    "dist-width-digits-minus-1": (["dist", "--alpha", "quad:-1,1,5,2", "--gamma", "rat:1/3",
                                   "--s", "5", "--width-digits", "-1"],
                                  "--width-digits must be >= 0"),
    "approx-fit-order-minus-1": (["approx-fit", "--alpha", "quad:-1,1,5,2", "--order", "-1",
                                  "--pairs", "{pairs}"], "order must be >= 0"),
    # a dec: alpha whose a_0 straddles an integer: the flag is refused before
    # the context, whose construction would fail on its own
    "cf-dec-depth-0": (["cf", "--alpha", "dec:0.5±0.6", "--depth", "0"], "depth must be >= 1"),
    "ostrowski-real-dec-depth-0": (["ostrowski-real", "--alpha", "dec:0.5±0.6", "--gamma",
                                    "rat:0", "--depth", "0"], "depth must be >= 1"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_out_of_range_integer_flag_is_refused(tmp_path, capsys, case):
    argv, message = REFUSALS[case]
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps({"pairs": PHI_PAIRS}))
    code, out = run_cli(capsys, [a.replace("{pairs}", str(pairs)) for a in argv])
    assert code == 1
    assert out == json.dumps({"error": "ValueError", "message": message}, indent=2) + "\n"


# every integer flag of every subcommand, as (argv, flag); `flag` takes each
# small value in turn, in place of the value it has in argv or appended
SWEEP = {
    "cf": (["cf", "--alpha", "quad:1,1,5,2"], ["--depth"]),
    "convergents": (["convergents", "--alpha", "quad:0,1,2,1"], ["--n"]),
    "ostrowski-int": (["ostrowski-int", "--alpha", "quad:-1,1,5,2"], ["--s"]),
    "ostrowski-real": (["ostrowski-real", "--alpha", "quad:-1,1,5,2", "--gamma", "rat:1/3"],
                       ["--depth"]),
    "dist": (["dist", "--alpha", "quad:-1,1,5,2", "--gamma", "rat:1/3", "--s", "5",
              "--depth", "8", "--width-digits", "10"], ["--s", "--depth", "--width-digits"]),
    "approx-fit": (["approx-fit", "--alpha", "quad:-1,1,5,2", "--pairs", "{pairs}"], ["--order"]),
    "build-psi": (["build-psi", "--alpha", "quad:-1,1,5,2", "--psi", "power:2", "--count", "2"],
                  ["--count", "power:"]),
    "line": (["line", "--a", "3", "--b", "7", "--d", "1", "--count", "3"],
             ["--a", "--b", "--d", "--count"]),
    "conic-orbit": (["conic-orbit", "--form", "1,-1,-1", "--d", "1", "--count", "3"],
                    ["--d", "--count"]),
    "laurent": (["laurent", "--form", "1,-1,-1", "--d", "1", "--terms", "3"], ["--d", "--terms"]),
    "build-periodic": (["build-periodic", "--alpha", "quad:-1,1,5,2", "--count", "3"],
                       ["--count"]),
    "config-periodic": (["build-periodic", "--alpha", "quad:-1,1,5,2", "--count", "3"],
                        ["--decay-window"]),
    "config-dist": (["dist", "--alpha", "quad:-1,1,5,2", "--gamma", "dec:0.09016994±1e-8",
                     "--s", "5"],
                    ["--precision-digits"]),
    "config-tolerance": (["build-periodic", "--alpha", "quad:-1,1,5,2", "--count", "3"],
                         ["--decay-tolerance"]),
}
# the values a rational flag takes in place of -3..3
SWEEP_VALUES = {"--decay-tolerance": ["0", "-1", "1/2", "1/0", "0/0"]}


def _with_value(argv: list[str], flag: str, value) -> list[str]:
    if flag == "power:":
        return [f"power:{value}" if a.startswith("power:") else a for a in argv]
    if flag in ("--decay-window", "--precision-digits", "--decay-tolerance"):
        return [flag, str(value), *argv]
    if flag in argv:
        i = argv.index(flag)
        return argv[:i + 1] + [str(value)] + argv[i + 2:]
    return [*argv, flag, str(value)]


@pytest.mark.parametrize("command, flag", [(c, f) for c in SWEEP for f in SWEEP[c][1]])
def test_small_integer_flags_answer_or_refuse(tmp_path, capsys, command, flag):
    # each value exits 0, 1 or 2 without a traceback, and exits 0 and 1 print
    # one JSON document
    pairs = tmp_path / "pairs.json"
    pairs.write_text(json.dumps({"pairs": PHI_PAIRS}))
    argv = [a.replace("{pairs}", str(pairs)) for a in SWEEP[command][0]]
    bad = []
    for value in SWEEP_VALUES.get(flag, range(-3, 4)):
        try:
            code = main(_with_value(argv, flag, value))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001 -- the finding itself
            code = type(exc).__name__
        out = capsys.readouterr().out
        if code in (0, 1):
            try:
                json.loads(out)
            except ValueError:
                code = "not one JSON document"
        if code not in (0, 1, 2):
            bad.append((value, code))
    assert bad == []


CONFIG_FEEDS = {
    "precision_digits": [(ostrowski_real, "precision_digits"), (delta_profile, "precision_digits")],
    "decay_window": [(fit_coefficients, "window"), (verify_order, "window"),
                     (periodic_construction, "window")],
    "decay_tolerance": [(fit_coefficients, "rel_tolerance"), (verify_order, "rel_tolerance"),
                        (periodic_construction, "rel_tolerance")],
    "digit_budget": [(construct_psi, "digit_budget")],
    "prefix_exceptions": [(detect_line, "max_prefix_exceptions"),
                          (quad_detect, "max_prefix_exceptions")],
}


def test_config_defaults_are_the_library_defaults():
    # seed_bound feeds find_seed, which has no default
    defaults = dict(CONFIG_FIELDS)
    assert sorted(CONFIG_FEEDS) == sorted(set(defaults) - {"seed_bound"})
    for name, feeds in CONFIG_FEEDS.items():
        for fn, param in feeds:
            assert inspect.signature(fn).parameters[param].default == defaults[name]


def test_removed_orbit_bound_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--orbit-bound", "5", "cf", "--alpha", "rat:1/2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --orbit-bound" in capsys.readouterr().err


def test_sci_str_deterministic():
    assert sci_str(Fraction(0)) == "0"
    assert sci_str(Fraction(1, 3), sig=5) == "3.3333e-01"
    assert sci_str(Fraction(-250), sig=3) == "-2.50e+02"
    assert sci_str(Fraction(999999, 1000), sig=3) == "1.00e+03"
    assert sci_str(Fraction(1, 10**50), sig=4) == "1.000e-50"


def test_sci_str_huge_operands():
    # 10^5-digit numerator and denominator; the exponent comes from bit lengths
    num = 7 * 10**100_000 + 3
    den = 3 * 10**99_990 + 1
    assert sci_str(Fraction(num, den), sig=5) == "2.3333e+10"
    assert sci_str(Fraction(-den, num), sig=3) == "-4.29e-11"
    assert sci_str(Fraction(10**100_000 - 1, 10**100_000), sig=4) == "1.000e+00"
    assert sci_str(Fraction(1, 10**100_000 + 1), sig=2) == "1.0e-100000"


def _sci17(v) -> str:
    # v to 17 significant digits, rounded half up, from mpmath at high precision
    exp = int(mpmath.floor(mpmath.log10(abs(v))))
    digits = str(int(mpmath.floor(abs(v) * mpmath.mpf(10) ** (16 - exp) + mpmath.mpf(1) / 2)))
    if len(digits) > 17:
        digits, exp = digits[:17], exp + 1
    return f"{'-' if v < 0 else ''}{digits[0]}.{digits[1:]}e{exp:+03d}"


def test_report_residuals_print_their_own_digits(tmp_path, capsys):
    # residuals down to 1e-97: a point of a 1e-40 enclosure would print
    # digits that are not the residual's
    code, out = run_cli(capsys, ["conic-orbit", "--form", "1,-1,-1", "--d", "1", "--count", "60"])
    pairs_file = tmp_path / "orbit.json"
    pairs_file.write_text(out)
    code, out = run_cli(capsys, ["approx-fit", "--alpha", "quad:1,1,5,2", "--order", "2",
                                 "--pairs", str(pairs_file)])
    assert code == 0
    doc = json.loads(out)
    with mpmath.workdps(400):
        def real(g):
            v = g["value"]
            return (int(v["P"]) + int(v["e"]) * mpmath.sqrt(int(v["D"]))) / int(v["Q"])

        alpha = (1 + mpmath.sqrt(5)) / 2
        g1, g2 = (real(g) for g in doc["set"]["gamma"])
        rows = doc["report"]["rows"]
        assert len(rows) == 58
        for row in rows:
            r, s = int(row["r"]), int(row["s"])
            rho = mpmath.mpf(r) / s - alpha - g1 / s - g2 / mpmath.mpf(s) ** 2
            assert row["residual"] == _sci17(rho), row
            assert row["scaled_residual"] == _sci17(abs(rho) * (abs(r) + abs(s)) ** 2), row
    assert rows[-1]["residual"] == "-1.9311976239713168e-97"
    assert rows[-1]["scaled_residual"] == "8.0898377798957504e-49"


def test_order_verdict_compares_exact_scaled_residuals_exactly(tmp_path, capsys):
    # the last five exact scaled residuals fall strictly, from about 5.8e-45
    # to 2.1e-48, below the 1e-40 enclosures the verdict once compared
    code, out = run_cli(capsys, ["conic-orbit", "--form", "1,-1,-1", "--d", "-1",
                                 "--count", "60"])
    pairs_file = tmp_path / "orbit.json"
    pairs_file.write_text(out)
    code, out = run_cli(capsys, ["approx-fit", "--alpha", "quad:1,1,5,2", "--order", "2",
                                 "--pairs", str(pairs_file)])
    report = json.loads(out)["report"]
    assert (code, report["verdict"], report["note"]) == (
        0, "PASS", "final scaled residual below 1/1000 of the first")
    pairs = [(int(r), int(s)) for r, s in json.loads(pairs_file.read_text())["pairs"]]
    _, exact = fit_coefficients(pairs, parse_target("quad:1,1,5,2"), 2)
    last = [row.scaled for row in exact.rows[-5:]]
    assert all(b < a for a, b in zip(last, last[1:]))
    assert Fraction(1, 10**49) < last[-1] < last[0] < Fraction(1, 10**44)


@pytest.mark.parametrize("pairs, order", [
    ([[0, 0], [1, 1], [2, 2], [3, 3], [5, 8]], 1),
    ([[0, 0], [1, 1], [2, 2], [3, 3], [5, 8]], 2),
    ([[-1, -3], [1, 1], [2, 2], [3, 3], [5, 8]], 1),
], ids=["zero-order1", "zero-order2", "negative"])
def test_approx_fit_refuses_denominators_below_one(tmp_path, capsys, pairs, order):
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(pairs))
    code, out = run_cli(capsys, ["approx-fit", "--alpha", "quad:1,1,5,2", "--order", str(order),
                                 "--pairs", str(path)])
    assert (code, json.loads(out)) == (1, {
        "error": "ValueError", "message": "denominators must be strictly increasing and positive"})


def test_build_psi_pairs_out_verifies(tmp_path, capsys):
    out_file = tmp_path / "psi_set.json"
    code, _ = run_cli(
        capsys,
        ["build-psi", "--alpha", "quad:-1,1,5,2", "--psi", "power:2", "--count",
         "3", "--pairs-out", str(out_file)],
    )
    assert code == 0
    code, out = run_cli(
        capsys, ["--decay-window", "3", "approx-verify", "--set", str(out_file)]
    )
    assert code == 0
    assert json.loads(out)["report"]["verdict"] == "PASS"


@pytest.mark.parametrize(
    "alpha",
    [Fraction(3, 7), qi_normalize(-1, 1, 5, 2), Certified.parse("0.6180339887±0.0000000001")],
    ids=["rat", "quad", "dec"],
)
def test_approx_set_json_roundtrip(tmp_path, alpha):
    gamma = [Fraction(-1, 7), qi_normalize(1, 1, 5, 10), RatInterval(Fraction(-1, 3), Fraction(1, 2))]
    doc = approx_set_json(ApproxSet(alpha=alpha, pairs=[(1, 2), (2, 3)], order=3, gamma=gamma))
    path = tmp_path / "set.json"
    path.write_text(json.dumps(doc))
    assert approx_set_json(load_approx_set(str(path))) == doc


def _line_set_doc(capsys) -> dict:
    code, out = run_cli(capsys, GOLDEN["line"])
    assert code == 0
    return json.loads(out)


def _drop(key):
    def edit(doc):
        del doc[key]
        return json.dumps(doc)
    return edit


def _set(key, value):
    def edit(doc):
        doc[key] = value
        return json.dumps(doc)
    return edit


def _truncate(doc):
    return json.dumps(doc)[:17]


@pytest.mark.parametrize(
    "command, edit, message_has",
    [
        ("approx-verify --set", _drop("N"), ("input.json", "'N'")),
        ("approx-verify --set", _drop("pairs"), ("input.json", "'pairs'")),
        ("detect-line --pairs", _drop("pairs"), ("input.json", "'pairs'")),
        ("approx-verify --set", _set("alpha", {"kind": "bogus", "value": "1/2"}),
         ("input.json", "'bogus'")),
        ("approx-verify --set", _set("alpha", {"kind": "interval", "value": {"lo": "1/3", "hi": "1/2"}}),
         ("input.json", "'interval'")),
        ("detect-line --pairs", _truncate, ("input.json", "JSONDecodeError")),
        ("approx-verify --set", _set("pairs", []), ("input.json", "pairs must be nonempty")),
    ],
    ids=["missing-N", "missing-pairs-set", "missing-pairs", "unknown-kind", "interval-alpha",
         "truncated-json", "empty-pairs"],
)
def test_malformed_input_file_is_typed_error(tmp_path, capsys, command, edit, message_has):
    path = tmp_path / "input.json"
    path.write_text(edit(_line_set_doc(capsys)))
    code, out = run_cli(capsys, [*command.split(), str(path)])
    assert code == 1
    err = json.loads(out)
    assert err["error"] == "ValueError"
    assert all(part in err["message"] for part in message_has), err["message"]
    with open(schema_path("error"), encoding="utf-8") as fh:
        Draft7Validator(json.load(fh)).validate(err)


SCHEMA_FILES = sorted(Path(schema_path("error")).parent.glob("*.schema.json"))


def test_file_input_commands_match_schema(tmp_path, capsys):
    pairs_file = tmp_path / "pairs.json"
    pairs_file.write_text(json.dumps([[2, 1], [5, 3], [13, 8], [34, 21], [89, 55], [233, 144]]))
    set_file = tmp_path / "set.json"
    set_file.write_text(json.dumps(_line_set_doc(capsys)))
    for argv in (
        ["approx-fit", "--alpha", "quad:1,1,5,2", "--order", "1", "--pairs", str(pairs_file)],
        ["approx-verify", "--set", str(set_file)],
        ["detect-line", "--pairs", str(set_file)],
        ["detect-quad", "--pairs", str(pairs_file)],
    ):
        code, out = run_cli(capsys, argv)
        assert code == 0, out
        with open(schema_path(argv[0]), encoding="utf-8") as fh:
            Draft7Validator(json.load(fh)).validate(json.loads(out))
    assert len(SCHEMA_FILES) == 15
    for path in SCHEMA_FILES:
        Draft7Validator.check_schema(json.loads(path.read_text(encoding="utf-8")))


def _refs(node):
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "$ref":
                yield value
            else:
                yield from _refs(value)
    elif isinstance(node, list):
        for value in node:
            yield from _refs(value)


@pytest.mark.parametrize("path", SCHEMA_FILES, ids=lambda p: p.name.split(".")[0])
def test_schema_keeps_only_referenced_definitions(path):
    schema = json.loads(path.read_text(encoding="utf-8"))
    definitions = schema.get("definitions", {})
    top = {key: value for key, value in schema.items() if key != "definitions"}
    reached, todo = set(), list(_refs(top))
    while todo:
        ref = todo.pop()
        name = ref.removeprefix("#/definitions/")
        assert ref.startswith("#/definitions/") and name in definitions, ref
        if name not in reached:
            reached.add(name)
            todo.extend(_refs(definitions[name]))
    assert reached == set(definitions)


INEXACT = "inexact JSON number {}; write integers, or rationals as strings"
BOOLEAN = "JSON boolean {}; no input value is true or false"
BOOLEAN_SET = ('{"alpha": {"kind": "rat", "value": "3/7"}, "N": true, "gamma": '
               '[{"kind": "rat", "value": "1/7"}], "pairs": [["1", "2"], ["4", "9"], ["7", "16"]]}')


@pytest.mark.parametrize(
    "argv, text, detail",
    [
        ("growth --pairs {}", '{"pairs": [[1.5, 2], [3, 4.7], [5, 6]]}', INEXACT.format("1.5")),
        ("growth --pairs {}", '{"pairs": [[1, 2], [3, Infinity], [5, 6]]}',
         INEXACT.format("Infinity")),
        ("detect-quad --pairs {}", "[[1, 1], [2, 1], [3, 2], [5, 3], [8, 5e0]]",
         INEXACT.format("5e0")),
        ("build-psi --alpha quad:-1,1,5,2 --psi table:{} --count 2", "[[1, 0.1]]",
         INEXACT.format("0.1")),
        ("build-psi --alpha quad:-1,1,5,2 --psi table:{} --count 2", '[[1.9, "1/10"]]',
         INEXACT.format("1.9")),
        ("build-psi --alpha quad:-1,1,5,2 --psi table:{} --count 2", '[[1, true], [6, "1/100"]]',
         BOOLEAN.format("true")),
        ("approx-verify --set {}", BOOLEAN_SET, BOOLEAN.format("true")),
        ("detect-quad --pairs {}", "[[1, 1], [2, 1], [3, 2], [5, 3], [8, false]]",
         BOOLEAN.format("false")),
    ],
    ids=["growth-pairs", "growth-infinity", "detect-quad-exponent", "psi-table-value",
         "psi-table-s", "psi-table-boolean", "set-order-boolean", "pairs-boolean"],
)
def test_input_files_refuse_inexact_numbers(tmp_path, capsys, argv, text, detail):
    # a JSON number with a fraction or an exponent is a float, which int()
    # would truncate and Fraction() would take at its binary value; a JSON
    # boolean is a Python int, 1 or 0
    path = tmp_path / "input.json"
    path.write_text(text)
    code, out = run_cli(capsys, argv.format(path).split())
    message = f"malformed input file {path}: ValueError {detail}"
    assert (code, json.loads(out)) == (1, {"error": "ValueError", "message": message})


def test_malformed_psi_table_is_typed_error(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text("5\n")
    code, out = run_cli(
        capsys,
        ["build-psi", "--alpha", "quad:-1,1,5,2", "--psi", f"table:{path}", "--count", "2"],
    )
    assert code == 1
    err = json.loads(out)
    assert err["error"] == "ValueError" and str(path) in err["message"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["conic-orbit", "--form", "1,0,-3,1", "--d", "1", "--count", "4"],
         "--form expects three integers a,b,c; got '1,0,-3,1'"),
        (["conic-orbit", "--form", "1,-1", "--d", "1", "--count", "4"],
         "--form expects three integers a,b,c; got '1,-1'"),
        (["conic-orbit", "--form", "1,-1,-1", "--d", "1", "--seed", "3", "--count", "4"],
         "--seed expects two integers r,s; got '3'"),
        (["conic-orbit", "--form", "1,-1,-1", "--d", "1", "--seed", "2,1.5", "--count", "4"],
         "--seed expects two integers r,s; got '2,1.5'"),
        (["laurent", "--form", "1,x,-1", "--d", "1", "--terms", "2"],
         "--form expects three integers a,b,c; got '1,x,-1'"),
    ],
    ids=["form-four", "form-two", "seed-one", "seed-fraction", "laurent-form-word"],
)
def test_malformed_integer_list_flag_is_named(capsys, argv, message):
    code, out = run_cli(capsys, argv)
    assert code == 1
    assert json.loads(out) == {"error": "ValueError", "message": message}


def test_certified_dist_large_s_contains_true_distance(capsys):
    gamma_digits = "0.1234567890123456789012345678901234567890"
    s = 100000
    code, out = run_cli(
        capsys,
        ["dist", "--alpha", "quad:-1,1,5,2", "--gamma", f"dec:{gamma_digits}±1e-40", "--s", str(s)],
    )
    assert code == 0, out
    direct = json.loads(out)["direct"]
    with mpmath.workdps(60):
        t = s * (mpmath.sqrt(5) - 1) / 2 - mpmath.mpf(gamma_digits)
        dist = abs(t - mpmath.nint(t))
        lo, hi = (Fraction(direct[k]) for k in ("lo", "hi"))
        assert mpmath.mpf(lo.numerator) / lo.denominator <= dist
        assert dist <= mpmath.mpf(hi.numerator) / hi.denominator


def test_build_psi_certified_alpha_beyond_sixteen_cf_digits(capsys):
    # the enclosure decides about 140 continued-fraction digits of 1/phi
    alpha = "dec:0.61803398874989484820458683436563811772030917980576286213544862±1e-60"
    code, out = run_cli(capsys, ["build-psi", "--alpha", alpha, "--psi", "power:2", "--count", "2"])
    assert code == 0, out
    doc = json.loads(out)
    assert doc["indices"] == [4, 12]
    assert doc["s"] == ["5", "238"]
    assert doc["certified"] is True


# what `import ratapprox` exports, its submodules aside
PUBLIC_NAMES = [
    "ApproxSet", "Automorph", "BlowUp", "CFContext", "Certified",
    "ConicForm", "DecayReport", "DegenerateRational", "DeltaProfile", "GammaOnOrbit",
    "InsufficientDepth", "InsufficientPairs", "IntDigits", "InvariantViolation", "MixedField",
    "NotPeriodic", "OrbitLeavesQuadrant", "OutOfRegime", "PrecisionExhausted", "PsiSpec", "QuadIrr",
    "RatApproxError", "RatInterval", "RationalTarget", "RealDigits", "RealTarget", "SingularSystem",
    "conic_orbit", "construct_psi",
    "delta_profile", "detect_line", "dist_bound", "dist_direct", "dist_formula", "enclose",
    "find_seed", "fit_coefficients", "fundamental_automorph", "growth_profile",
    "laurent_expansion", "line_set", "minimal_polynomial", "nearest_numerators", "ostrowski_int",
    "ostrowski_real", "pell4", "periodic_construction", "qi_normalize", "quad_detect",
    "verify_order",
]


def test_cli_import_stays_light():
    # each CLI call is a fresh process that imports ratapprox.cli, so the
    # import must not load dataclasses, typing or inspect (with ast, dis and
    # tokenize behind them); every layer module stays loaded eagerly
    src = os.path.dirname(os.path.dirname(os.path.abspath(ratapprox.__file__)))
    code = (
        "import sys\n"
        "import ratapprox.cli\n"
        "from types import ModuleType\n"
        "print(sorted(m for m in ('dataclasses', 'typing', 'inspect') if m in sys.modules))\n"
        "layers = ('exactnum', 'cf', 'ostrowski', 'approx', 'conic', 'cli')\n"
        "print([m for m in layers if 'ratapprox.' + m not in sys.modules])\n"
        "print(sorted(n for n, v in vars(ratapprox).items()\n"
        "             if not n.startswith('_') and not isinstance(v, ModuleType)))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout.splitlines()
    assert out == ["[]", "[]", repr(PUBLIC_NAMES)]
    # a whole call that reads no file builds one subparser and leaves out
    # shutil (which argparse's own HelpFormatter imports, with bz2 and lzma)
    # and json's decoder
    code = (
        "import argparse, runpy, sys\n"
        "built = []\n"
        "add = argparse._SubParsersAction.add_parser\n"
        "def counted(self, name, **kwargs):\n"
        "    built.append(name)\n"
        "    return add(self, name, **kwargs)\n"
        "argparse._SubParsersAction.add_parser = counted\n"
        "sys.argv = ['ratapprox', 'cf', '--alpha', 'quad:1,1,5,2', '--depth', '5']\n"
        "try:\n"
        "    runpy.run_module('ratapprox.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, built, sorted(m for m in ('shutil', 'bz2', 'lzma', 'json',\n"
        "                                              'json.decoder', 'dataclasses', 'typing',\n"
        "                                              'inspect') if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout.splitlines()
    assert out[-1] == "0 ['cf'] []"
    assert json.loads("\n".join(out[:-1])) == {"a": [1] * 5, "K": 0, "L": 1}


def test_library_has_no_assert():
    # `python -O` strips assert statements, and an AssertionError escapes
    # the CLI's typed error handling as a traceback: library checks raise
    # InvariantViolation instead
    found = []
    for path in sorted(Path(ratapprox.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(node, ast.Assert) or (
                isinstance(exc, ast.Name) and exc.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_cli_reads_kinds_from_the_table():
    # exactnum.KINDS decides the kind of a value; no module above exactnum
    # tests a value's Python type
    kinds = {"QuadIrr", "Certified", "RatInterval", "Fraction", "int"}
    found = []
    for name in ("cli.py", "cf.py", "approx.py", "conic.py", "ostrowski.py"):
        path = Path(ratapprox.__file__).parent / name
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                arg = node.args[1]
                names = arg.elts if isinstance(arg, ast.Tuple) else [arg]
                if any(getattr(n, "id", None) in kinds for n in names):
                    found.append(f"{name}:{node.lineno}")
    assert found == []


def test_one_continued_fraction_object():
    # a CFContext holds the whole expansion: no module reads a second object
    # off it (ctx.cf), and only cf.py steps the convergent recurrence
    private = {"_step", "_M_START"}
    found = []
    for path in sorted(Path(ratapprox.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = set()
            if isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            if isinstance(node, ast.Attribute) and node.attr == "cf":
                found.append(f"{path.name}:{node.lineno}:.cf")
            if path.name != "cf.py" and names & private:
                found.append(f"{path.name}:{node.lineno}:{'/'.join(sorted(names & private))}")
    assert found == []


def test_contexts_read_their_digits_on_demand():
    # CFContext expands one digit up front by default, and no call in the
    # library picks how many: every CFContext(...) passes only the target
    found, defaults = [], None
    for path in sorted(Path(ratapprox.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CFContext"
                    and (len(node.args) != 1 or node.keywords)):
                found.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ClassDef) and node.name == "CFContext":
                defaults = [ast.literal_eval(d) for f in node.body
                            if getattr(f, "name", None) == "__init__" for d in f.args.defaults]
    assert (found, defaults) == ([], [1])


def test_only_byvalue_and_quadirr_define_value_dunders():
    # value types inherit ==, hash and repr from exactnum.ByValue; only
    # QuadIrr, whose == also answers rationals, writes its own.  A
    # `__hash__ = None` that keeps a value type unhashable is allowed.
    dunders = {"__eq__", "__hash__", "__repr__"}
    found = []
    for path in sorted(Path(ratapprox.__file__).parent.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(cls, ast.ClassDef) or cls.name in ("ByValue", "QuadIrr"):
                continue
            for node in cls.body:
                names = []
                if isinstance(node, ast.FunctionDef):
                    names = [node.name]
                elif isinstance(node, ast.Assign):
                    none = isinstance(node.value, ast.Constant) and node.value.value is None
                    names = [t.id for t in node.targets if isinstance(t, ast.Name)
                             and not (none and t.id == "__hash__")]
                found += [f"{path.name}:{cls.name}.{n}" for n in names if n in dunders]
    assert found == []


# the classes that keep a constructor which only checks and copies its
# arguments, instead of taking exactnum.Record's, and why
COPYING_INIT_ALLOWED = {
    "QuadIrr": "built by every field operation, where a generic constructor costs about 4x",
    "RatInterval": "built by every interval operation",
}


def _copies_arguments(init: ast.FunctionDef) -> bool:
    """Whether the body is guard `if`s that raise, then `self.x = x` for
    parameters x, and nothing else."""
    params = {arg.arg for arg in init.args.args[1:] + init.args.kwonlyargs}
    copies = 0
    for node in init.body:
        target = node.targets[0] if isinstance(node, ast.Assign) and len(node.targets) == 1 else None
        if (isinstance(target, ast.Attribute) and getattr(target.value, "id", None) == "self"
                and getattr(node.value, "id", None) == target.attr and target.attr in params):
            copies += 1
        elif not (isinstance(node, ast.If) and not node.orelse and not copies
                  and all(isinstance(n, ast.Raise) for n in node.body)):
            return False
    return copies > 0


def test_records_take_their_constructor_from_record():
    # a record's fields are its __slots__, and exactnum.Record builds it from
    # them; an __init__ that only checks and copies its arguments repeats that
    found = []
    for path in sorted(Path(ratapprox.__file__).parent.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(cls, ast.ClassDef) or cls.name in COPYING_INIT_ALLOWED:
                continue
            found += [f"{path.name}:{cls.name}" for node in cls.body
                      if isinstance(node, ast.FunctionDef) and node.name == "__init__"
                      and _copies_arguments(node)]
    assert found == []


CERT_GAMMA = "dec:0.1234567890123456789012345678901234567890±1e-40"


def test_dist_honours_precision_digits(capsys):
    alpha = ["--alpha", "quad:-1,1,5,2", "--gamma", CERT_GAMMA, "--depth", "24"]
    refusal = {"error": "PrecisionExhausted", "message": "digit at position 21 undecidable"}
    code, out = run_cli(capsys, ["--precision-digits", "3", "ostrowski-real", *alpha])
    assert (code, json.loads(out)) == (1, refusal)
    code, out = run_cli(capsys, ["--precision-digits", "3", "dist", *alpha, "--s", "1000"])
    assert (code, json.loads(out)) == (1, refusal)
    code, out = run_cli(capsys, ["dist", *alpha, "--s", "1000"])
    assert code == 0 and json.loads(out)["regime"] == "series"


def test_laurent_threshold_for_a_huge_level(capsys):
    d = 10**40
    argv = ["laurent", "--form", "1,-1,-1", "--d", str(d), "--terms", "4"]
    # a child first, so that a threshold found by counting s up times out
    # instead of hanging the suite
    src = os.path.dirname(os.path.dirname(os.path.abspath(ratapprox.__file__)))
    child = subprocess.run([sys.executable, "-m", "ratapprox.cli", *argv], capture_output=True,
                           text=True, env=dict(os.environ, PYTHONPATH=src), timeout=10)
    t0 = time.perf_counter()
    code, out = run_cli(capsys, argv)
    assert time.perf_counter() - t0 < 0.5
    assert (code, out) == (child.returncode, child.stdout) and code == 0
    s = int(json.loads(out)["threshold_s"])
    # the least s with 5*s^2 >= 8*d
    assert 5 * s * s >= 8 * d > 5 * (s - 1) ** 2


# (value, its CLI text after the prefix or None) for every kind in KINDS
_small = st.integers(-(10**6), 10**6)
_KIND_CASES = {
    "rat": st.one_of(
        _small.map(lambda n: (n, str(n))),
        st.fractions(max_denominator=10**9).map(lambda f: (f, str(f))),
    ),
    "quad": st.tuples(_small, _small.filter(bool), st.sampled_from((2, 3, 5, 7, 13)),
                      st.integers(1, 30), _small.filter(bool)).map(
        lambda t: (qi_normalize(t[0], t[1], t[2] * t[3] ** 2, t[4]),
                   f"{t[0]},{t[1]},{t[2] * t[3] ** 2},{t[4]}")),
    "dec": st.tuples(st.decimals(-(10**6), 10**6, places=20), st.integers(1, 40),
                     st.sampled_from(("±", "+-"))).map(
        lambda t: (Certified(str(t[0]), RatInterval(Fraction(t[0]) - Fraction(1, 10**t[1]),
                                                    Fraction(t[0]) + Fraction(1, 10**t[1]))),
                   f"{t[0]}{t[2]}1e-{t[1]}")),
    "interval": st.lists(st.fractions(max_denominator=10**9), min_size=2, max_size=2).map(
        lambda b: (RatInterval(min(b), max(b)), None)),
}


@pytest.mark.parametrize("name", sorted(KINDS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_kinds_round_trip_through_json_and_cli_text(name, data):
    x, text = data.draw(_KIND_CASES[name])
    doc = json.loads(json.dumps(target_json(x)))
    assert doc["kind"] == name
    assert value_from_json(doc, (name,)) == x
    if text is not None:
        assert parse_target(f"{name}:{text}") == x


@pytest.mark.parametrize("text", ["float:1", "interval:0,1", "rat:", "quad", "alg:-2,0,0,1", ""])
def test_parse_target_unknown_message(text):
    with pytest.raises(ValueError) as exc:
        parse_target(text)
    assert str(exc.value) == (
        f"cannot parse target {text!r}; use rat:p/q, quad:P,e,D,Q or dec:digits±err"
    )


def test_parse_target_quad_arity_message():
    for text in ("quad:1,2,3", "quad:1,1,5,2,1"):
        with pytest.raises(ValueError) as exc:
            parse_target(text)
        assert str(exc.value) == "quad target needs P,e,D,Q"


# strings with quotes, backslashes, controls, non-ASCII and lone surrogates;
# ints of either sign, some past 4,300 digits
_JSON_TEXT = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "\ud800", "\udfff x \ud83d", "  ", "é\U0001f600"])
_JSON_INT = st.integers() | st.integers(10**4300, 10**4400).flatmap(
    lambda n: st.sampled_from([n, -n]))
_JSON_DOCS = st.recursive(
    _JSON_TEXT | _JSON_INT | st.booleans() | st.none(),
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(_JSON_TEXT, inner, max_size=5)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(doc=_JSON_DOCS)
def test_json_text_is_json_dumps_indent_2(doc):
    # the digit limit, where the interpreter has one, is off as in cli.main
    limited = hasattr(sys, "set_int_max_str_digits")
    saved = sys.get_int_max_str_digits() if limited else None
    if limited:
        sys.set_int_max_str_digits(0)
    try:
        assert json_text(doc) == json.dumps(doc, indent=2)
    finally:
        if limited:
            sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("value", [0.5, Fraction(1, 3), Decimal("1.5"), {1, 2}, {1: "a"},
                                   {"a": [1, {"b": 2.0}]}, [None, {(1, 2): 3}]])
def test_json_text_refuses_other_types(value):
    with pytest.raises(TypeError):
        json_text(value)
