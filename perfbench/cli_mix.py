"""cli-mix: fresh-process invocations of all 15 subcommands, one at a time.

Each op starts `python -S -m ratapprox.cli ...` (no site-packages
processing: the library needs only the standard library) and waits for it.
Seven ops per subcommand with seeded light arguments, including `dec`
targets, `--csv` reports and the file-driven commands on pair and set files
written in set-up, plus two malformed-input calls that must answer with a
typed JSON error.  The order is seeded.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import subprocess
import sys

import oracle
from dist_batch import ALPHAS as UNIT_ALPHAS, Basis, _digits, _series_s
from workload import Workload

NAME = "cli-mix"
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
INPUTS = os.path.join(WORK, "inputs")
PER_COMMAND = 7
# (P, e, D, Q) targets of any size for cf and convergents
ANY_ALPHAS = [(1, 1, 5, 2), (0, 1, 2, 1), (3, 1, 7, 2), (0, 2, 3, 1), (5, -1, 13, 3), (-1, 1, 5, 2), (0, 1, 41, 4)]
# (a, b, c, d) with a seed found by find_seed at the default bound
FORMS = [(1, -1, -1, 1), (1, -1, -1, -1), (1, 0, -2, 1), (1, 0, -2, -1), (1, 0, -3, 1),
         (1, 0, -5, 4), (1, -1, -3, -3), (2, 0, -3, -1), (1, 0, -7, 2), (1, 0, -6, -2)]
LINES = [(3, 7, 1), (-2, 5, 3), (1, 1, 0), (5, 3, -4), (7, 11, 2)]
MALFORMED = ("approx-verify-missing-N", "detect-line-missing-pairs")


def _quad_arg(P, e, D, Q) -> str:
    return f"quad:{P},{e},{D},{Q}"


def orbit_file(form) -> str:
    return os.path.join(INPUTS, "orbit_{}_{}_{}_{}.json".format(*form))


def set_file(form, order) -> str:
    return os.path.join(INPUTS, "set_{}_{}_{}_{}_N{}.json".format(*form, order))


def line_file(line) -> str:
    return os.path.join(INPUTS, "line_{}_{}_{}.json".format(*line))


def _cmd_ops(rng, cmd: str, j: int) -> dict:
    """The j-th op (0..PER_COMMAND-1) of a subcommand; j picks the variant."""
    if cmd == "cf":
        P, e, D, Q = rng.choice(ANY_ALPHAS)
        if j < 2:
            target = "dec:" + oracle.dec_text(P, e, D, Q, 60)
            return {"argv": ["cf", "--alpha", target, "--depth", str(rng.randint(5, 12))],
                    "schema": "cf", "alpha": (P, e, D, Q)}
        return {"argv": ["cf", "--alpha", _quad_arg(P, e, D, Q), "--depth", str(rng.randint(5, 40))],
                "schema": "cf", "alpha": (P, e, D, Q)}
    if cmd == "convergents":
        P, e, D, Q = rng.choice(ANY_ALPHAS)
        return {"argv": ["convergents", "--alpha", _quad_arg(P, e, D, Q), "--n", str(rng.randint(3, 30))],
                "schema": "convergents", "alpha": (P, e, D, Q)}
    alpha = rng.choice(UNIT_ALPHAS)
    P, D, Q = alpha
    qa = _quad_arg(P, 1, D, Q)
    basis = Basis(*alpha)
    if cmd == "ostrowski-int":
        return {"argv": ["ostrowski-int", "--alpha", qa, "--s", str(rng.randint(1, 10**9))],
                "schema": "ostrowski_int", "alpha": alpha}
    if cmd in ("ostrowski-real", "dist"):
        depth = rng.randint(6, 20)
        op = {"alpha": alpha, "depth": depth}
        if j < 3:
            v = rng.randint(2, 10**4)
            fl = basis.floor_times(v)
            u = v
            while u % v == 0:
                u = rng.randint(-fl, v - fl - 1)
            op["gamma"] = ("rat", u, v)
            gamma_arg = f"rat:{u}/{v}"
        else:
            b = _digits(rng, basis.a, rng.randint(6, depth))
            u = sum(d * q for d, q in zip(b, basis.q))
            v = sum(d * p for d, p in zip(b, basis.p))
            op["gamma"] = ("digits", u, v)
            op["b"] = b
            if cmd == "ostrowski-real":
                gamma_arg = "dec:" + oracle.dec_text(u * P - v * Q, u, D, Q, 200)
            else:
                # u*alpha - v = (u*P - v*Q + u*sqrt(D))/Q
                gamma_arg = _quad_arg(u * P - v * Q, u, D, Q)
        if cmd == "ostrowski-real":
            op["argv"] = ["ostrowski-real", "--alpha", qa, "--gamma", gamma_arg, "--depth", str(depth)]
            op["schema"] = "ostrowski_real"
            return op
        s = _series_s(rng, basis, op["b"], (10**3, 10**12)) if "b" in op and j % 2 else rng.randint(10**3, 10**12)
        op.update(argv=["dist", "--alpha", qa, "--gamma", gamma_arg, "--s", str(s), "--depth", str(depth)]
                  + (["--allow-orbit"] if "b" in op else []), schema="dist", s=s)
        return op
    if cmd == "build-psi":
        k, count = rng.randint(1, 3), rng.randint(2, 3)
        argv = ["build-psi", "--alpha", qa, "--psi", f"power:{k}", "--count", str(count)]
        return {"argv": argv + (["--with-pairs"] if j % 2 else []), "schema": "build_psi",
                "alpha": alpha, "k": k, "count": count}
    if cmd == "build-periodic":
        argv = ["build-periodic", "--alpha", qa, "--count", str(rng.randint(3, 8))]
        return {"argv": argv + (["--csv"] if j < 2 else []), "schema": "build_periodic", "alpha": alpha}
    form = rng.choice(FORMS)
    fa, fb, fc, fd = form
    if cmd == "approx-fit":
        argv = ["approx-fit", "--alpha", _quad_arg(-fb, 1, fb * fb - 4 * fa * fc, 2 * fa),
                "--order", str(rng.randint(2, 4)), "--pairs", orbit_file(form)]
        return {"argv": argv + (["--csv"] if j < 2 else []), "schema": "approx_report", "form": form,
                "inputs": [("orbit", form)]}
    if cmd == "approx-verify":
        order = rng.choice((2, 4))
        argv = ["approx-verify", "--set", set_file(form, order)]
        return {"argv": argv + (["--csv"] if j < 2 else []), "schema": "approx_report", "form": form,
                "inputs": [("set", form, order)], "set": set_file(form, order)}
    if cmd == "detect-quad":
        return {"argv": ["detect-quad", "--pairs", orbit_file(form)], "schema": "detect_quad", "form": form,
                "inputs": [("orbit", form)]}
    if cmd == "conic-orbit":
        return {"argv": ["conic-orbit", "--form", f"{fa},{fb},{fc}", "--d", str(fd),
                         "--count", str(rng.randint(2, 8))], "schema": "conic_orbit", "form": form}
    if cmd == "laurent":
        return {"argv": ["laurent", "--form", f"{fa},{fb},{fc}", "--d", str(fd),
                         "--terms", str(rng.randint(2, 8))], "schema": "laurent", "form": form}
    line = rng.choice(LINES)
    la, lb, ld = line
    if cmd == "line":
        return {"argv": ["line", "--a", str(la), "--b", str(lb), "--d", str(ld), "--count", str(rng.randint(3, 12))],
                "schema": "approx_set", "line": line}
    if cmd == "detect-line":
        return {"argv": ["detect-line", "--pairs", line_file(line)], "schema": "detect_line", "line": line,
                "inputs": [("line", line)]}
    if cmd == "growth":
        kind = ("linear", "exponential", "values")[j % 3]
        if kind == "linear":
            a0, step = rng.randint(1, 50), rng.randint(1, 20)
            s = [a0 + step * i for i in range(rng.randint(6, 10))]
        elif kind == "exponential":
            c0, k = rng.randint(1, 9), rng.randint(2, 5)
            s = [c0 * k**i for i in range(rng.randint(4, 8))]
        else:
            s = sorted(rng.sample(range(1, 10**6), rng.randint(3, 8)))
        return {"argv": ["growth", "--s", ",".join(map(str, s))], "schema": "growth", "kind": kind, "s": s}
    raise ValueError(cmd)


COMMANDS = ["cf", "convergents", "ostrowski-int", "ostrowski-real", "dist", "approx-fit", "approx-verify",
            "build-psi", "line", "detect-line", "conic-orbit", "laurent", "build-periodic", "detect-quad", "growth"]


def generate(seed: int, quick: bool = False) -> list[dict]:
    rng = random.Random(seed)
    ops = []
    for cmd in COMMANDS:
        for j in range(1 if quick else PER_COMMAND):
            op = _cmd_ops(rng, cmd, j)
            op["cmd"] = cmd
            ops.append(op)
    ops.append({"cmd": MALFORMED[0], "argv": ["approx-verify", "--set", os.path.join(INPUTS, "set_missing_N.json")],
                "schema": "error", "inputs": [("malformed-set",)]})
    ops.append({"cmd": MALFORMED[1], "argv": ["detect-line", "--pairs", os.path.join(INPUTS, "pairs_missing.json")],
                "schema": "error", "inputs": [("malformed-pairs",)]})
    rng.shuffle(ops)
    return ops


class CliMix(Workload):
    NAME = NAME
    CHILDREN = True

    def generate(self, seed, quick=False):
        return generate(seed, quick)

    def expected_failures(self, ops):
        return sum(op["cmd"] in MALFORMED for op in ops)

    def setup(self, pkg, ops):
        """Write the pair and set files the ops read, with the program's own calls."""
        from ratapprox import cli, conic

        os.makedirs(INPUTS, exist_ok=True)
        needs = {need for op in ops for need in op.get("inputs", ())}
        for need in sorted(needs, key=repr):
            kind = need[0]
            if kind in ("orbit", "set"):
                form = conic.ConicForm(*need[1])
                seed = conic.find_seed(form, 10_000)
                aset = conic.conic_orbit(form, seed, 12)
                if kind == "orbit":
                    _dump(orbit_file(need[1]), cli.approx_set_json(aset))
                    continue
                lx = conic.laurent_expansion(form, need[2])
                aset.order, aset.gamma = need[2], lx.gamma
                _dump(set_file(need[1], need[2]), cli.approx_set_json(aset))
            elif kind == "line":
                _dump(line_file(need[1]), cli.approx_set_json(pkg.approx.line_set(*need[1], 10)))
            elif kind == "malformed-set":
                doc = cli.approx_set_json(pkg.approx.line_set(3, 7, 1, 6))
                del doc["N"]
                _dump(os.path.join(INPUTS, "set_missing_N.json"), doc)
            else:
                doc = cli.approx_set_json(pkg.approx.line_set(3, 7, 1, 6))
                del doc["pairs"]
                _dump(os.path.join(INPUTS, "pairs_missing.json"), doc)
        env = dict(os.environ, PYTHONPATH=SRC)
        return {"env": env, "trace": None}

    def run(self, state, op):
        if state["trace"] is None:
            cmd = [sys.executable, "-S", "-m", "ratapprox.cli", *op["argv"]]
        else:
            t = state["trace"]
            cmd = [sys.executable, "-S", os.path.join(HERE, "launcher.py"), t["summary"], t["spans"],
                   str(t["tracer"].op_index), *op["argv"]]
        proc = subprocess.run(cmd, cwd=ROOT, env=state["env"], capture_output=True, timeout=120)
        return proc.returncode, proc.stdout.decode()

    def failed(self, op, out):
        rc, text = out
        if op["cmd"] in MALFORMED:
            # a typed error: exit 1 with one JSON document naming the error
            try:
                return not (rc == 1 and "error" in json.loads(text))
            except ValueError:
                return True
        return rc != 0

    def text(self, out):
        return out[1]

    def describe(self, op):
        return op["cmd"] + ": " + " ".join(op["argv"])[:160]

    # -- tracing: the children run launcher.py and write their own summaries --

    def install_tracer(self, tracer, state):
        self.children = state["trace"] = {
            "tracer": tracer, "summary": os.path.join(WORK, "child-summary.json"),
            "spans": os.path.join(WORK, f"spans-{NAME}.tsv"), "summaries": []}

    def uninstall_tracer(self, tracer, state):
        state["trace"] = None

    def trace_op(self, tracer, op, out):
        with open(self.children["summary"], encoding="utf-8") as fh:
            summary = json.load(fh)
        summary["counts"]["cli.stdout_bytes"] = len(out[1].encode())
        self.children["summaries"].append(summary)

    def trace_summary(self, tracer, state):
        from tracer import merge

        return merge(self.children["summaries"])

    def dump_spans(self, tracer, path):
        pass  # the children appended their spans to the same file

    def import_ms(self, summary, import_s):
        return summary["import_ms"] / max(1, summary["ops"])

    # -- oracle ------------------------------------------------------------

    def check(self, op, rec, schemas, cache):
        from cli_checks import CHECKS

        with open(rec, encoding="utf-8") as fh:
            text = fh.read()
        if "--csv" in op["argv"]:
            rows = list(csv.DictReader(io.StringIO(text)))
            assert rows and list(rows[0]) == ["s", "r", "residual", "scaled_residual"], "csv header"
            CHECKS[op["cmd"]](op, None, rows)
            return
        doc = json.loads(text)
        schemas.validate(op["schema"], doc)
        CHECKS[op["cmd"]](op, doc, None)


def _dump(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
