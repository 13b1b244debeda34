"""Span tracer that wraps ratapprox's functions from the outside.

`Tracer.install` replaces every function and method defined in the traced
modules, in every module namespace that binds it, with a wrapper.  A call
becomes a span (name, start, end, parent, op) when it enters a module from
another one, or when its name is one the per-layer metrics need; other
calls inside one module are only counted.  Spans are kept in arrays and
written out by `dump`.  `summary` reduces them to sums that add across
processes; `metrics` turns a summary into the per-layer metrics per op.
"""

from __future__ import annotations

import functools
import json
import time
import types
from array import array

LAYERS = ("exactnum", "cf", "ostrowski", "approx", "conic", "cli")

# qualified names that are always spans, even when called from their own module
NAMED = {
    "exactnum.exp_bounds",
    "exactnum.exp_le",
    "exactnum.enclose",
    "cf.CFContext.D",
    "ostrowski.ostrowski_int",
    "ostrowski._extract_exact",
    "ostrowski._extract_certified",
    "ostrowski.dist_formula",
    "ostrowski.dist_direct",
    "approx.construct_psi",
    "approx.fit_coefficients",
    "approx.verify_order",
    "cli.main",
    "cli.build_parser",
    "cli.parse_args",
}

# serialization helpers; a span inside another of these is not a new span
ENCODE = {
    "cli.rat_str",
    "cli.sci_str",
    "cli.target_json",
    "cli.gamma_json",
    "cli.approx_set_json",
    "cli.report_json",
    "cli.report_csv",
    "cli._approx_str",
    "cli.json.dumps",
}

_SKIP = {
    "__new__", "__init_subclass__", "__subclasshook__", "__class_getitem__",
    "__getattribute__", "__getattr__", "__setattr__", "__delattr__",
    "__repr__", "__hash__", "__reduce__", "__reduce_ex__", "__getstate__",
    "__setstate__", "__copy__", "__deepcopy__", "__dir__", "__sizeof__",
    "__format__",
}

_CALLABLE = (types.FunctionType, functools._lru_cache_wrapper)

# per-layer metric -> (kind, source); see metrics()
METRICS = {
    "exactnum.self_ms": ("self", "exactnum"),
    "exactnum.exp_bounds.ms": ("ms", ("exactnum.exp_bounds",)),
    "exactnum.exp_bounds.calls": ("calls", "exactnum.exp_bounds"),
    "exactnum.exp_bounds.max_bits": ("max", "exactnum.exp_bounds.bits"),
    "exactnum.exp_le.rounds": ("rounds", "exactnum.exp_le"),
    "exactnum.qi_normalize.calls": ("calls", "exactnum.qi_normalize"),
    "exactnum.enclose.ms": ("ms", ("exactnum.enclose",)),
    "exactnum.enclose.rounds": ("rounds", "exactnum.enclose"),
    "cf.self_ms": ("self", "cf"),
    "cf.q.calls": ("calls", "cf.CFContext.q"),
    "cf.D.ms": ("ms", ("cf.CFContext.D",)),
    "ostrowski.self_ms": ("self", "ostrowski"),
    "ostrowski.ostrowski_int.ms": ("ms", ("ostrowski.ostrowski_int",)),
    "ostrowski.real_exact.ms": ("ms", ("ostrowski._extract_exact",)),
    "ostrowski.dist_formula.ms": ("ms", ("ostrowski.dist_formula",)),
    "ostrowski.dist_direct.ms": ("ms", ("ostrowski.dist_direct",)),
    "ostrowski.real_certified.ms": ("ms", ("ostrowski._extract_certified",)),
    "approx.self_ms": ("self", "approx"),
    "approx.construct_psi.ms": ("ms", ("approx.construct_psi",)),
    "approx.fit_verify.ms": ("ms", ("approx.fit_coefficients", "approx.verify_order")),
    "conic.self_ms": ("self", "conic"),
    "cli.import_ms": ("import", None),
    "cli.parse.ms": ("ms", ("cli.build_parser", "cli.parse_args")),
    "cli.encode.ms": ("encode", None),
    "cli.stdout_bytes": ("count", "cli.stdout_bytes"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.encode_ids: set[int] = set()
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.op = array("l")
        self.parent = array("l")
        self.nid = array("l")
        self.t0 = array("q")
        self.t1 = array("q")
        self.stack: list[list] = []
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, int] = {}
        self.op_index = -1
        self._patches: list[tuple[object, str, object]] = []
        self._root_id = self._name_id("op", "bench")

    # -- names -------------------------------------------------------------

    def _name_id(self, qual: str, layer: str) -> int:
        if qual not in self._ids:
            self._ids[qual] = len(self.names)
            self.names.append(qual)
            self.layer_of.append(layer)
            self.calls.append(0)
            if qual in ENCODE or qual.endswith(".to_json"):
                self.encode_ids.add(len(self.names) - 1)
        return self._ids[qual]

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, qual: str, layer: str):
        nid = self._name_id(qual, layer)
        named = qual in NAMED
        encode = nid in self.encode_ids
        pre, post = _PRE.get(qual), _POST.get(qual)
        stack, calls, clock = self.stack, self.calls, time.perf_counter_ns
        op_arr, par_arr, nid_arr, t0_arr, t1_arr = self.op, self.parent, self.nid, self.t0, self.t1
        tracer = self

        def wrapper(*args, **kwargs):
            calls[nid] += 1
            top = stack[-1] if stack else None
            if pre is not None:
                pre(tracer, top)
            if top is not None and (top[3] if encode else (top[1] == layer and not (named and top[0] != nid))):
                return fn(*args, **kwargs)
            idx = len(nid_arr)
            op_arr.append(tracer.op_index)
            par_arr.append(top[2] if top is not None else -1)
            nid_arr.append(nid)
            t1_arr.append(0)
            frame = [nid, layer, idx, encode or (top is not None and top[3]), 0]
            stack.append(frame)
            t0_arr.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1_arr[idx] = clock()
                stack.pop()
            if post is not None:
                post(tracer, frame, result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap the functions and methods of package.<layer> for every layer."""
        import sys

        prefix = package.__name__ + "."
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(prefix)]
        replaced = {}
        for layer in LAYERS:
            mod = sys.modules[prefix + layer]
            for name, value in list(vars(mod).items()):
                if isinstance(value, _CALLABLE) and getattr(value, "__module__", None) == mod.__name__:
                    replaced[id(value)] = self.wrap(value, f"{layer}.{name}", layer)
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    self._wrap_class(value, layer)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if id(value) in replaced:
                    self._patch(mod, name, replaced[id(value)])
        cli = sys.modules[prefix + "cli"]
        proxy = types.SimpleNamespace(**{k: getattr(cli.json, k) for k in dir(cli.json) if not k.startswith("__")})
        proxy.dumps = self.wrap(cli.json.dumps, "cli.json.dumps", "cli")
        self._patch(cli, "json", proxy)

    def _wrap_class(self, cls, layer: str) -> None:
        if issubclass(cls, (tuple, BaseException)):
            return
        for name, value in list(vars(cls).items()):
            if name in _SKIP:
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(value, types.FunctionType):
                self._patch(cls, name, self.wrap(value, qual, layer))
            elif isinstance(value, staticmethod) and isinstance(value.__func__, types.FunctionType):
                self._patch(cls, name, staticmethod(self.wrap(value.__func__, qual, layer)))
            elif isinstance(value, property) and isinstance(value.fget, types.FunctionType):
                self._patch(cls, name, property(self.wrap(value.fget, qual, layer)))

    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, getattr(owner, name) if not isinstance(owner, type) else vars(owner)[name]))
        setattr(owner, name, new)

    def uninstall(self) -> None:
        for owner, name, old in reversed(self._patches):
            setattr(owner, name, old)
        self._patches.clear()

    # -- ops ---------------------------------------------------------------

    def begin_op(self, start_ns: int | None = None) -> None:
        """Open the root span of the next op (now, or at start_ns)."""
        self.op_index += 1
        idx = len(self.nid)
        self.op.append(self.op_index)
        self.parent.append(-1)
        self.nid.append(self._root_id)
        self.t1.append(0)
        self.stack.append([self._root_id, "bench", idx, False, 0])
        self.t0.append(time.perf_counter_ns() if start_ns is None else start_ns)

    def add_span(self, name: str, layer: str, t0: int, t1: int) -> None:
        """Record a finished span under the current one."""
        nid = self._name_id(name, layer)
        self.op.append(self.op_index)
        self.parent.append(self.stack[-1][2] if self.stack else -1)
        self.nid.append(nid)
        self.t0.append(t0)
        self.t1.append(t1)

    def end_op(self) -> None:
        frame = self.stack.pop()
        self.t1[frame[2]] = time.perf_counter_ns()

    def count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # -- output ------------------------------------------------------------

    def dump(self, path: str, mode: str = "w") -> None:
        """Write spans as tab-separated op, id, parent, name, start_ns, end_ns."""
        with open(path, mode, encoding="utf-8") as fh:
            names = self.names
            for i in range(len(self.nid)):
                fh.write(f"{self.op[i]}\t{i}\t{self.parent[i]}\t{names[self.nid[i]]}\t{self.t0[i]}\t{self.t1[i]}\n")

    def summary(self) -> dict:
        """Sums over all spans; summaries of several tracers add key by key."""
        n = len(self.nid)
        dur = [self.t1[i] - self.t0[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_ns = dict.fromkeys(LAYERS, 0)
        named_ns: dict[str, int] = {}
        encode_ns = 0
        ops = op_ns = covered_ns = 0
        names, layer_of, nids, par = self.names, self.layer_of, self.nid, self.parent
        for i in range(n):
            k = nids[i]
            layer = layer_of[k]
            if layer in self_ns:
                self_ns[layer] += dur[i] - child[i]
            p = par[i]
            parent_id = nids[p] if p >= 0 else -1
            if parent_id != k:
                named_ns[names[k]] = named_ns.get(names[k], 0) + dur[i]
            if k in self.encode_ids and (p < 0 or parent_id not in self.encode_ids):
                encode_ns += dur[i]
            if k == self._root_id:
                ops += 1
                op_ns += dur[i]
                covered_ns += child[i]
        return {
            "ops": ops,
            "op_ms": op_ns / 1e6,
            "covered_ms": covered_ns / 1e6,
            "encode_ms": encode_ns / 1e6,
            "self_ms": {k: v / 1e6 for k, v in self_ns.items()},
            "named_ms": {k: v / 1e6 for k, v in named_ns.items()},
            "calls": {self.names[i]: c for i, c in enumerate(self.calls) if c},
            "counts": dict(self.counts),
            "max": dict(self.maxima),
        }


def merge(summaries: list[dict]) -> dict:
    out: dict = {}
    for s in summaries:
        for key, value in s.items():
            if isinstance(value, dict):
                slot = out.setdefault(key, {})
                for k, v in value.items():
                    slot[k] = max(slot.get(k, v), v) if key == "max" else slot.get(k, 0) + v
            else:
                out[key] = out.get(key, 0) + value
    return out


def metrics(summary: dict, import_ms: float, overhead_pct: float) -> dict:
    """Per-layer metrics, per op, from a (merged) summary."""
    ops = max(1, summary.get("ops", 0))
    out = {}
    for name, (kind, src) in METRICS.items():
        if kind == "self":
            value, unit = summary["self_ms"].get(src, 0.0) / ops, "ms"
        elif kind == "ms":
            value, unit = sum(summary["named_ms"].get(s, 0.0) for s in src) / ops, "ms"
        elif kind == "calls":
            value, unit = summary["calls"].get(src, 0) / ops, "count"
        elif kind == "rounds":
            value, unit = summary["counts"].get(src + ".rounds", 0) / ops, "count"
        elif kind == "max":
            value, unit = summary["max"].get(src, 0), "bits"
        elif kind == "count":
            value, unit = summary["counts"].get(src, 0) / ops, "bytes"
        elif kind == "encode":
            value, unit = summary["encode_ms"] / ops, "ms"
        else:
            value, unit = import_ms, "ms"
        out[name] = {"value": value, "unit": unit}
    coverage = 100.0 * summary["covered_ms"] / summary["op_ms"] if summary.get("op_ms") else 0.0
    out["trace.coverage_pct"] = {"value": coverage, "unit": "%"}
    out["trace.overhead_pct"] = {"value": overhead_pct, "unit": "%"}
    return out


# -- hooks for the escalation counters and operand sizes ----------------------


def _count_inner(tracer, top, parent_qual):
    if top is not None and tracer.names[top[0]] == parent_qual:
        top[4] += 1


def _close_rounds(tracer, frame, result, qual):
    if frame[4] > 1:
        tracer.count(qual + ".rounds", frame[4] - 1)


def _exp_bounds_post(tracer, frame, result):
    bits = max(result.lo.numerator.bit_length(), result.lo.denominator.bit_length(),
               result.hi.numerator.bit_length(), result.hi.denominator.bit_length())
    if bits > tracer.maxima.get("exactnum.exp_bounds.bits", 0):
        tracer.maxima["exactnum.exp_bounds.bits"] = bits


def _build_parser_post(tracer, frame, parser):
    parser.parse_args = tracer.wrap(parser.parse_args, "cli.parse_args", "cli")


_PRE = {
    "exactnum.exp_bounds": lambda t, top: _count_inner(t, top, "exactnum.exp_le"),
    "exactnum.sqrt_bounds": lambda t, top: _count_inner(t, top, "exactnum.enclose"),
}
_POST = {
    "exactnum.exp_bounds": _exp_bounds_post,
    "exactnum.exp_le": lambda t, f, r: _close_rounds(t, f, r, "exactnum.exp_le"),
    "exactnum.enclose": lambda t, f, r: _close_rounds(t, f, r, "exactnum.enclose"),
    "cli.build_parser": _build_parser_post,
}


def write_summary(path: str, summary: dict, extra: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**summary, **extra}, fh)
