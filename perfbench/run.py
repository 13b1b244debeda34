"""Benchmark for ratapprox: one command, three workloads.

    python3 perfbench/run.py --workload psi-exp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --check        # quick self-check of every oracle

Run from the root of a checkout.  A run generates its op list from the seed,
compiles the program's bytecode once, sets the program up several times
(the median is setup_s), then runs whole rounds of the op list, one op at a
time, until --seconds have passed.  Outputs of the first round are checked
against the oracles in oracle.py and the workload modules; later rounds must
reproduce them byte for byte.  The last line of stdout is the result JSON.

With --trace 1 the run measures untraced rounds for half the time, installs
the span tracer (tracer.py) and runs traced rounds for the other half; it
prints the per-layer metrics and the tracing overhead instead.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import py_compile
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SETUP_REPEATS = 11

import cli_mix  # noqa: E402
import dist_batch  # noqa: E402
import oracle  # noqa: E402
import psi_exp  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = {w.NAME: w for w in (psi_exp.PsiExp(), dist_batch.DistBatch(), cli_mix.CliMix())}


def compile_program() -> None:
    """Compile ratapprox's bytecode next to its sources, as an install would,
    so that every timed import reads bytecode, also where the environment
    forbids writing it (PYTHONDONTWRITEBYTECODE)."""
    import importlib.util

    paths = [os.path.join(SRC, "ratapprox", name) for name in os.listdir(os.path.join(SRC, "ratapprox"))]
    # the traced cli-mix children also import the tracer
    for path in paths + [os.path.join(HERE, "tracer.py")]:
        if path.endswith(".py"):
            py_compile.compile(path, cfile=importlib.util.cache_from_source(path), doraise=True)


def fresh_import():
    """Import ratapprox.cli anew; returns (package, import seconds)."""
    for name in [m for m in sys.modules if m == "ratapprox" or m.startswith("ratapprox.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("ratapprox.cli")
    return sys.modules["ratapprox"], time.perf_counter() - t0


def set_up(W, ops):
    """Time SETUP_REPEATS complete set-ups; keep the state of the last one."""
    times, imports = [], []
    state = None
    for _ in range(SETUP_REPEATS):
        # the previous set-up's garbage is collected outside the timed region
        state = None
        gc.collect()
        t0 = time.perf_counter()
        pkg, imp = fresh_import()
        state = W.setup(pkg, ops)
        times.append(time.perf_counter() - t0)
        imports.append(imp)
    return state, statistics.median(times), statistics.median(imports)


def measure(W, state, ops, seconds: float, tracer=None, records=None, reference=None):
    """Whole rounds of the op list until `seconds` of op time have passed.

    Returns the per-op latencies (s), the failed op count, the op time (s)
    the first round's output digests and whether every round reproduced the
    digests of `reference` (by default its own first round); `records`, when
    given, receives the first round's outputs."""
    lat, failed, busy, same = [], 0, 0.0, True
    while True:
        digests = []
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.begin_op()
            t0 = time.perf_counter()
            try:
                out = W.run(state, op)
            except Exception as exc:  # a raising op counts as failed, the run goes on
                out = exc
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
            lat.append(dt)
            busy += dt
            bad = isinstance(out, Exception) or W.failed(op, out)
            failed += bad
            if tracer is not None and not isinstance(out, Exception):
                W.trace_op(tracer, op, out)
            digests.append(None if bad else W.digest(out))
            if records is not None and len(records) < len(ops):
                records.append(None if bad else W.record(op, out, WORK, i))
        if reference is None:
            reference = digests
        same &= digests == reference
        if busy >= seconds:
            return lat, failed, busy, reference, same


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    k = max(1, -(-len(s) * p // 100))
    return s[int(k) - 1]


def histogram(values, marks: dict) -> str:
    """Per-op times in bins of a quarter octave, marking the percentiles."""

    def bin_of(seconds: float) -> int:
        return math.floor(4 * math.log2(max(seconds * 1000, 1e-3)))

    bins: dict[int, int] = {}
    for v in values:
        bins[bin_of(v)] = bins.get(bin_of(v), 0) + 1
    top = max(bins.values())
    lines = []
    for k in range(min(bins), max(bins) + 1):
        n = bins.get(k, 0)
        tags = " ".join(name for name, v in marks.items() if bin_of(v) == k)
        lo, hi = 2 ** (k / 4), 2 ** ((k + 1) / 4)
        lines.append(f"{lo:9.3g} -{hi:9.3g} ms {n:6d} {'#' * round(40 * n / top):40s} {tags}".rstrip())
    return "\n".join(lines)


def check_outputs(W, ops, records) -> tuple[bool, list[str]]:
    schemas = oracle.Schemas(os.path.join(SRC, "ratapprox", "schemas"))
    cache: dict = {}
    errors = []
    for op, rec in zip(ops, records):
        if rec is None:
            continue
        try:
            W.check(op, rec, schemas, cache)
        except AssertionError as exc:
            errors.append(f"{W.describe(op)}: {exc}")
        except Exception as exc:  # a malformed output is a wrong output
            errors.append(f"{W.describe(op)}: {type(exc).__name__}: {exc}")
    return not errors, errors


def peak_rss_mb(W) -> float:
    who = resource.RUSAGE_CHILDREN if W.CHILDREN else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def bench(name: str, seed: int, seconds: float, trace: bool) -> dict:
    W = WORKLOADS[name]
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    compile_program()
    ops = W.generate(seed)
    # the benchmark's own objects are never traversed by the program's
    # garbage collections
    gc.collect()
    gc.freeze()
    state, setup_s, import_s = set_up(W, ops)
    gc.collect()
    records: list = []
    half = seconds / 2 if trace else seconds
    lat, failed, busy, reference, same = measure(W, state, ops, half, records=records)
    rss = peak_rss_mb(W)
    result = {"attempted": len(lat), "failed": failed}
    if trace:
        tr = tracing.Tracer()
        W.install_tracer(tr, state)
        t_lat, t_failed, t_busy, _, t_same = measure(W, state, ops, half, tracer=tr, reference=reference)
        same &= t_same
        W.uninstall_tracer(tr, state)
        result["attempted"] += len(t_lat)
        result["failed"] += t_failed
        summary = W.trace_summary(tr, state)
        W.dump_spans(tr, os.path.join(WORK, f"spans-{name}.tsv"))
        overhead = 100.0 * ((t_busy / len(t_lat)) / (busy / len(lat)) - 1.0)
        metrics = tracing.metrics(summary, W.import_ms(summary, import_s), overhead)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "throughput_ops_s": {"value": len(lat) / busy, "unit": "1/s"},
            "latency_p50_ms": {"value": 1000 * percentile(lat, 50), "unit": "ms"},
            "latency_p90_ms": {"value": 1000 * percentile(lat, 90), "unit": "ms"},
            "peak_rss_mb": {"value": rss, "unit": "MiB"},
        }
        marks = {"p50": percentile(lat, 50), "p90": percentile(lat, 90)}
        print(f"[{name}] per-op times, {len(lat)} ops:\n{histogram(lat, marks)}", file=sys.stderr)
    ok, errors = check_outputs(W, ops, records)
    if not same:
        ok = False
        errors.append("a later round did not reproduce the first round's outputs")
    for line in errors[:20]:
        print(f"[{name}] WRONG {line}", file=sys.stderr)
    result = {"correct": ok, **result, "metrics": metrics}
    return result


def self_check() -> int:
    """Run every workload's oracles on a short op list; exit 1 on any miss."""
    bad = 0
    os.makedirs(WORK, exist_ok=True)
    compile_program()
    for name, W in WORKLOADS.items():
        ops = W.generate(1, quick=True)
        pkg, _ = fresh_import()
        state = W.setup(pkg, ops)
        records: list = []
        lat, failed, _, _, _ = measure(W, state, ops, 0.0, records=records)
        ok, errors = check_outputs(W, ops, records)
        expected = W.expected_failures(ops)
        status = "ok" if ok and failed == expected else "FAIL"
        bad += status != "ok"
        print(f"{name}: {len(ops)} ops, {failed} failed (expected {expected}), checks {status}")
        for line in errors:
            print(f"  {line}")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true", help="quick self-check of every workload's oracles")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ratapprox", "cli.py")):
        print(f"no ratapprox sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.set_int_max_str_digits(0)
    if args.check:
        return self_check()
    if args.workload is None:
        ap.error("--workload is required")
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
