"""Mutation sampler: how many one-change faults in a module does the test suite catch?

Each mutant makes one change to the module: + and - swapped, < and <=, >
and >=, == and !=, // made *, or an integer constant c made c + 1.  A seeded
sample of the mutation sites is drawn, each mutant is written into a copy of
the checkout (the checkout itself is never touched) and the suite runs
against it with -x under a per-mutant timeout.  A mutant the suite passes is
a survivor; it is printed with its line and change.

    python tools/mutate.py src/ratapprox/exactnum.py --seed 1 --sample 40 \\
        --functions pow10_cmp,outward_str --workdir /tmp/mutants

Standard library only (the suite itself needs pytest); not part of the
Tier-1 tests.  Exit status 1 when a mutant survives.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
         ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
         ast.FloorDiv: ast.Mult}


def _scoped(tree: ast.Module, functions: set[str] | None):
    """(node, dotted scope) for every node inside the named functions or
    classes (every node of the module when functions is None)."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            yield child, inner
            yield from walk(child, inner)

    for node, scope in walk(tree, ""):
        if functions is None or functions & set(scope.split(".")):
            yield node, scope


def sites(tree: ast.Module, functions: set[str] | None) -> list[tuple]:
    """Every mutation site as (index of the node in ast.walk order, field,
    position in the field or None, description, scope, line)."""
    order = {id(node): i for i, node in enumerate(ast.walk(tree))}
    found = []
    for node, scope in _scoped(tree, functions):
        i = order[id(node)]
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            new = SWAPS[type(node.op)]
            found.append((i, "op", None, f"{type(node.op).__name__} -> {new.__name__}", scope,
                          node.lineno))
        elif isinstance(node, ast.Compare):
            for j, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    new = SWAPS[type(op)]
                    found.append((i, "ops", j, f"{type(op).__name__} -> {new.__name__}", scope,
                                  node.lineno))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found.append((i, "value", None, f"{node.value} -> {node.value + 1}", scope,
                          node.lineno))
    return found


def mutant_source(source: str, site: tuple) -> str:
    """The module's source with one site changed."""
    tree = ast.parse(source)
    i, field, j = site[:3]
    node = list(ast.walk(tree))[i]
    if field == "op":
        node.op = SWAPS[type(node.op)]()
    elif field == "ops":
        node.ops[j] = SWAPS[type(node.ops[j])]()
    else:
        node.value += 1
    return ast.unparse(tree)


def run_suite(work: Path, pytest_args: list[str], timeout: float) -> str:
    """'killed', 'survived' or 'timeout' for the suite in `work`."""
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                             *pytest_args], cwd=work, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the suite and any child it started
        proc.wait()
        return "timeout"
    return "survived" if code == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("module", help="path of the module under src/, e.g. src/ratapprox/exactnum.py")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--sample", type=int, default=40, help="mutants to run (all sites if fewer)")
    ap.add_argument("--functions", help="comma-separated function names to mutate inside")
    ap.add_argument("--lines", help="comma-separated source lines: only their sites")
    ap.add_argument("--timeout", type=float, default=300, help="seconds per mutant")
    ap.add_argument("--workdir", help="directory for the copy (default: a temporary one)")
    ap.add_argument("--list", action="store_true", help="print the sampled sites and stop")
    ap.add_argument("pytest_args", nargs="*", help="passed to pytest (after --), e.g. test files")
    args = ap.parse_args(argv)

    module = Path(args.module)
    rel = (ROOT / module).resolve().relative_to(ROOT)
    source = (ROOT / rel).read_text()
    functions = set(args.functions.split(",")) if args.functions else None
    tree = ast.parse(source)
    all_sites = sites(tree, functions)
    if args.lines:
        lines = {int(x) for x in args.lines.split(",")}
        all_sites = [site for site in all_sites if site[5] in lines]
    rng = random.Random(args.seed)
    sample = rng.sample(all_sites, min(args.sample, len(all_sites)))
    sample.sort(key=lambda site: site[5])
    print(f"{rel}: {len(all_sites)} sites, {len(sample)} sampled (seed {args.seed})", flush=True)
    if args.list:
        for site in sample:
            print(f"  line {site[5]}  {site[4]}: {site[3]}")
        return 0

    work = Path(args.workdir or tempfile.mkdtemp(prefix="mutants-"))
    if work.resolve() == ROOT or ROOT in work.resolve().parents:
        ap.error("--workdir must lie outside the checkout")
    if work.exists():
        shutil.rmtree(work)
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", work)
    target = work / rel
    # the unparsed but unchanged module must pass, or every verdict is void
    target.write_text(ast.unparse(tree))
    if run_suite(work, args.pytest_args, args.timeout) != "survived":
        print("the suite fails on the unmutated module; no mutant run", flush=True)
        return 2
    survivors = []
    counts = {"killed": 0, "survived": 0, "timeout": 0}
    for n, site in enumerate(sample, 1):
        target.write_text(mutant_source(source, site))
        start = time.monotonic()
        verdict = run_suite(work, args.pytest_args, args.timeout)
        counts[verdict] += 1
        print(f"[{n}/{len(sample)}] line {site[5]} {site[4]}: {site[3]}: {verdict}"
              f" ({time.monotonic() - start:.1f} s)", flush=True)
        if verdict == "survived":
            survivors.append(site)
    target.write_text(source)
    killed = counts["killed"] + counts["timeout"]
    print(f"killed {killed} of {len(sample)} ({counts['timeout']} by timeout); "
          f"{len(survivors)} survived", flush=True)
    for site in survivors:
        print(f"SURVIVOR line {site[5]} {site[4]}: {site[3]}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
