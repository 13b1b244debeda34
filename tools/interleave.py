"""Op-level A/B timing of two checkouts on one perfbench workload, in one process.

    python tools/interleave.py PARENT CHANGE --workload dist-batch --seeds 1,2,3

Each tree's src/ratapprox is copied under its own package name into a
temporary directory, so both import side by side.  The workload modules are
imported from this checkout's perfbench/ without writing bytecode there.  For
each seed, both sides are set up on the same op list, then whole rounds run,
each op once on each side, alternating which side goes first, until
--seconds of op time have passed.  Slow phases of a shared machine then fall
on both sides alike, where separate harness runs of a few seconds each can
land in different phases.

Prints, per seed, each side's throughput (ops per second of op time), its
p50 and p90 latency and its throughput per stratum (psi-exp's `stratum`,
dist-batch's `kind`), the change relative to the parent, how many rounds the
change's round time beat the parent's, and how many first-round outputs
differ between the two sides.  Standard library only; not part of the Tier-1
tests.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
STRATUM = {"psi-exp": "stratum", "dist-batch": "kind"}  # the op field that names the stratum


def load(tree: Path, name: str, into: Path):
    """Import tree/src/ratapprox as the package `name`; returns it."""
    shutil.copytree(tree / "src" / "ratapprox", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    importlib.import_module(f"{name}.cli")
    return sys.modules[name]


def run_op(W, state, op):
    """(seconds, output or None when the op raised or failed)."""
    t0 = time.perf_counter()
    try:
        out = W.run(state, op)
    except Exception:  # a raising op counts as failed, as in perfbench/run.py
        out = None
    dt = time.perf_counter() - t0
    return dt, None if out is None or W.failed(op, out) else out


def compare(W, pkgs, seed: int, seconds: float, percentile) -> str:
    ops = W.generate(seed)
    strata = [op[STRATUM[W.NAME]] for op in ops]
    states = [W.setup(pkg, ops) for pkg in pkgs]
    gc.collect()
    lat = ([], [])
    per_stratum = ({}, {})  # stratum -> [ops, seconds], per side
    failed = [0, 0]
    differ = 0
    busy = 0.0
    rounds = won = 0
    while rounds == 0 or busy < seconds:
        round_time = [0.0, 0.0]
        for i, op in enumerate(ops):
            # which side goes first flips from op to op and from round to round
            order = (0, 1) if (i + rounds) % 2 == 0 else (1, 0)
            outs = [None, None]
            for side in order:
                dt, outs[side] = run_op(W, states[side], op)
                lat[side].append(dt)
                tally = per_stratum[side].setdefault(strata[i], [0, 0.0])
                tally[0] += 1
                tally[1] += dt
                round_time[side] += dt
                failed[side] += outs[side] is None
                busy += dt
            if rounds == 0 and None not in outs:
                differ += W.digest(outs[0]) != W.digest(outs[1])
        won += round_time[1] < round_time[0]
        rounds += 1
    lines = [f"seed {seed}: {len(lat[0])} ops per side, {differ} first-round outputs differ, "
             f"failed {failed[0]} / {failed[1]}"]
    stats = []
    for side in (0, 1):
        thr = len(lat[side]) / sum(lat[side])
        p50, p90 = (1000 * percentile(lat[side], p) for p in (50, 90))
        stats.append((thr, p50, p90))
        lines.append(f"  {SIDES[side]:6s} throughput {thr:9.1f} ops/s  p50 {p50:.4f} ms  p90 {p90:.4f} ms")
        lines.append("         per stratum " + "  ".join(
            f"{name} {n / t:.1f}" for name, (n, t) in sorted(per_stratum[side].items())))
    (t0, a0, b0), (t1, a1, b1) = stats
    lines.append(f"  change throughput {100 * (t1 / t0 - 1):+.1f} %  p50 {100 * (a1 / a0 - 1):+.1f} %  "
                 f"p90 {100 * (b1 / b0 - 1):+.1f} %")
    lines.append(f"  change round time below the parent's in {won} of {rounds} rounds")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", choices=("psi-exp", "dist-batch"), required=True)
    ap.add_argument("--seeds", default="1,2,3", help="comma-separated op-list seeds")
    ap.add_argument("--seconds", type=float, default=20, help="op time per seed, both sides together")
    args = ap.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "src" / "ratapprox" / "cli.py").is_file():
            ap.error(f"no ratapprox sources under {tree / 'src'}")
    sys.set_int_max_str_digits(0)
    sys.dont_write_bytecode = True  # perfbench/ stays as it is
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run as perfbench

    W = perfbench.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix="interleave-") as tmp:
        sys.path.insert(0, tmp)
        pkgs = [load(tree, f"ratapprox_{side}", Path(tmp))
                for tree, side in zip((args.parent, args.change), SIDES)]
        gc.collect()
        gc.freeze()
        for seed in (int(s) for s in args.seeds.split(",")):
            print(compare(W, pkgs, seed, args.seconds, perfbench.percentile), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
