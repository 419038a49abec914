"""Span tracing of the curveatlas public API from outside the package.

``Tracer.install()`` rebinds each function and method named in ``TARGETS``,
in every loaded ``curveatlas`` module namespace that holds it (``from .x
import y`` copies count) or on its class, to a wrapper that records one
span per call: name, start, end, parent span and operation id.  Spans stay
in flat in-memory arrays until ``dump()`` writes them out; ``uninstall()``
puts the originals back.  No source file of the package changes.

The per-layer metrics (``PER_LAYER``) are derived from the spans of the
traced operations and from a few counters read off arguments, results and
exceptions at the same boundaries.  Times are self times: a span's duration
minus the part covered by its child spans.  Counts and times are per
operation, so runs of different length compare directly.  Which end-to-end
metric each layer metric should move, and on which workload:

  cli        report: op_p50_s; no change elsewhere
  search     search-sweep, then report: ops_per_s; none on tower-precision
             or maps-batch
  kernel     rational_sqrt moves search-sweep; BivarPoly.evaluate and
             QuadRat move maps-batch (a kernel change must show on both)
  curves     setup_s on every workload; maps-batch: ops_per_s
  maps       maps-batch: ops_per_s; small on report
  fixedreal  tower-precision at high P: op_p50_s and op_tail_s, while
             margin_bits_min must not drop
  modular    tower-precision, then report: ops_per_s; none on search-sweep
             or maps-batch

Of the workloads BENCHMARK.json lists, report carries every layer; the
rows that name tower-precision or maps-batch apply when those are run by
hand.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional

import numpy as np

# (span name, module, attribute or Class.attribute)
TARGETS = [
    ("cli.main", "curveatlas.cli", "main"),
    ("cli.emit", "curveatlas.cli", "emit"),
    ("search.search_ks", "curveatlas.search", "search_ks"),
    ("search.search_integral", "curveatlas.search", "search_integral"),
    ("search.reconcile", "curveatlas.search", "reconcile"),
    ("kernel.rational_sqrt", "curveatlas.kernel", "rational_sqrt"),
    ("kernel.BivarPoly.evaluate", "curveatlas.kernel", "BivarPoly.evaluate"),
    ("kernel.QuadRat.mul", "curveatlas.kernel", "QuadRat.__mul__"),
    ("curves.is_on_curve", "curveatlas.curves", "is_on_curve"),
    ("curves.paper_points", "curveatlas.curves", "paper_points"),
    ("maps.k3_to_ks", "curveatlas.maps", "k3_to_ks"),
    ("maps.ks_to_k3", "curveatlas.maps", "ks_to_k3"),
    ("maps.k1_to_ks", "curveatlas.maps", "k1_to_ks"),
    ("maps.cover_k3_to_k6", "curveatlas.maps", "cover_k3_to_k6"),
    ("maps.k1_to_k3", "curveatlas.maps", "k1_to_k3"),
    ("maps.k2_to_k6", "curveatlas.maps", "k2_to_k6"),
    ("maps.pair_k1_to_k2", "curveatlas.maps", "pair_k1_to_k2"),
    ("maps.euler_resolvent_check", "curveatlas.maps", "euler_resolvent_check"),
    ("maps.pell_params", "curveatlas.maps", "pell_params"),
    ("fixedreal.pi", "curveatlas.fixedreal", "pi"),
    ("fixedreal.exp", "curveatlas.fixedreal", "exp"),
    ("fixedreal.FixedReal.mul", "curveatlas.fixedreal", "FixedReal.__mul__"),
    ("fixedreal.FixedReal.truediv", "curveatlas.fixedreal", "FixedReal.__truediv__"),
    ("fixedreal.FixedReal.cbrt", "curveatlas.fixedreal", "FixedReal.cbrt"),
    ("modular.ModularContext.create", "curveatlas.modular", "ModularContext.create"),
    ("modular.schlafli_w", "curveatlas.modular", "schlafli_w"),
    ("modular.recover_pair", "curveatlas.modular", "recover_pair"),
    ("modular.j_invariant", "curveatlas.modular", "j_invariant"),
    ("modular.verify_tower", "curveatlas.modular", "verify_tower"),
    ("modular.weber_product_selftest", "curveatlas.modular", "weber_product_selftest"),
]

MAP_IDENTITIES = (
    "maps.cover_k3_to_k6", "maps.k1_to_k3", "maps.k2_to_k6",
    "maps.pair_k1_to_k2", "maps.euler_resolvent_check",
)


def _count(key: str, amount: Callable) -> Callable:
    def hook(counters, args, result):
        counters[key] = counters.get(key, 0) + amount(args, result)
    return hook


def _count_error(key: str, exc_type_name: str) -> Callable:
    def hook(counters, exc):
        if type(exc).__name__ == exc_type_name:
            counters[key] = counters.get(key, 0) + 1
    return hook


def _on_search(prefix: str) -> Callable:
    def hook(counters, args, result):
        counters[prefix + ".scanned"] = counters.get(prefix + ".scanned", 0) + result.scanned
        counters[prefix + ".found"] = counters.get(prefix + ".found", 0) + len(result.found)
    return hook


def _on_emit(counters, args, result):
    report = args[0]
    counters["cli.checks.count"] = counters.get("cli.checks.count", 0) + len(report.checks)
    counters["cli.checks.failed"] = counters.get("cli.checks.failed", 0) + len(report.failed())


ON_RETURN = {
    "cli.emit": _on_emit,
    "search.search_ks": _on_search("search.search_ks"),
    "search.search_integral": _on_search("search.search_integral"),
    "kernel.rational_sqrt": _count(
        "kernel.rational_sqrt.squares", lambda args, r: r is not None),
}

ON_ERROR = {
    "modular.recover_pair": _count_error("modular.recover_pair.errors", "RecoveryError"),
    "maps.k1_to_ks": _count_error("maps.domain_errors", "MapDomainError"),
    "maps.ks_to_k3": _count_error("maps.domain_errors", "MapDomainError"),
    "maps.k3_to_ks": _count_error("maps.domain_errors", "MapDomainError"),
}


class Tracer:
    """Records spans while ``op`` is an operation id; ``op = None`` pauses.

    Operation 0 is set-up; operations 1, 2, ... are the traced operations.
    Single-threaded: calls made inside worker processes are not observed.
    """

    def __init__(self):
        self.op: Optional[int] = None
        self.counters: Dict[str, float] = {}
        self.span_names: List[str] = []
        self._name = array("H")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]
        self._restore: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        for name, module, attr in TARGETS:
            mod = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                self._wrap_method(name, getattr(mod, cls_name), meth)
            else:
                self._wrap_function(name, getattr(mod, attr))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap_function(self, name: str, original) -> None:
        wrapper = self._wrap(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "curveatlas" and not mod_name.startswith("curveatlas."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _wrap_method(self, name: str, cls, meth: str) -> None:
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(name, raw.__func__))
        else:
            replacement = self._wrap(name, raw)
        # aliases such as __rmul__ = __mul__ share the function object
        for attr, value in list(cls.__dict__.items()):
            if value is raw:
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, replacement)

    def _wrap(self, name: str, fn):
        nid = len(self.span_names)
        self.span_names.append(name)
        on_return = ON_RETURN.get(name)
        on_error = ON_ERROR.get(name)
        names, parents, ops = self._name, self._parent, self._op
        starts, ends, stack = self._start, self._end, self._stack
        counters = self.counters
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(op)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(counters, exc)
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if on_return is not None:
                on_return(counters, args, result)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def span_count(self) -> int:
        return len(self._name)

    def self_times(self):
        """(names, ops, self seconds) arrays over every recorded span."""
        names = np.frombuffer(self._name, dtype=np.uint16).astype(np.int64)
        ops = np.frombuffer(self._op, dtype=np.int32)
        parents = np.frombuffer(self._parent, dtype=np.int32)
        dur = (np.frombuffer(self._end, dtype=np.int64)
               - np.frombuffer(self._start, dtype=np.int64)) / 1e9
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return names, ops, dur - child

    def dump(self, path) -> None:
        """Write every span to an .npz file (arrays plus the span-name table)."""
        np.savez(
            path,
            span_names=np.array(self.span_names),
            name=np.frombuffer(self._name, dtype=np.uint16),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            op=np.frombuffer(self._op, dtype=np.int32),
            start_ns=np.frombuffer(self._start, dtype=np.int64),
            end_ns=np.frombuffer(self._end, dtype=np.int64),
        )


# name, unit, better.  ".calls" and counts are per traced operation,
# ".s" is self time per traced operation; curves.paper_points.s is the
# set-up's first table verification.
PER_LAYER = [
    ("cli.main.s", "s/op", "lower"),
    ("cli.emit.s", "s/op", "lower"),
    ("cli.checks.count", "count/op", "higher"),
    ("cli.checks.failed", "count/op", "lower"),
    ("search.search_ks.calls", "count/op", "lower"),
    ("search.search_ks.s", "s/op", "lower"),
    ("search.search_ks.scanned", "count/op", "lower"),
    ("search.search_ks.found", "count/op", "higher"),
    ("search.search_integral.calls", "count/op", "lower"),
    ("search.search_integral.s", "s/op", "lower"),
    ("search.search_integral.scanned", "count/op", "lower"),
    ("search.reconcile.s", "s/op", "lower"),
    ("search.hit_ratio", "ratio", "higher"),
    ("search.child_cpu_s", "s/op", "lower"),
    ("kernel.rational_sqrt.calls", "count/op", "lower"),
    ("kernel.rational_sqrt.s", "s/op", "lower"),
    ("kernel.rational_sqrt.square_ratio", "ratio", "higher"),
    ("kernel.BivarPoly.evaluate.calls", "count/op", "lower"),
    ("kernel.BivarPoly.evaluate.s", "s/op", "lower"),
    ("kernel.QuadRat.mul.calls", "count/op", "lower"),
    ("curves.is_on_curve.calls", "count/op", "lower"),
    ("curves.is_on_curve.s", "s/op", "lower"),
    ("curves.paper_points.s", "s", "lower"),
    ("maps.k3_to_ks.calls", "count/op", "lower"),
    ("maps.k3_to_ks.s", "s/op", "lower"),
    ("maps.ks_to_k3.s", "s/op", "lower"),
    ("maps.k1_to_ks.s", "s/op", "lower"),
    ("maps.identities.s", "s/op", "lower"),
    ("maps.pell_params.s", "s/op", "lower"),
    ("maps.domain_errors", "count/op", "lower"),
    ("fixedreal.pi.calls", "count/op", "lower"),
    ("fixedreal.pi.s", "s/op", "lower"),
    ("fixedreal.exp.calls", "count/op", "lower"),
    ("fixedreal.exp.s", "s/op", "lower"),
    ("fixedreal.FixedReal.mul.calls", "count/op", "lower"),
    ("fixedreal.FixedReal.mul.s", "s/op", "lower"),
    ("fixedreal.FixedReal.truediv.calls", "count/op", "lower"),
    ("fixedreal.FixedReal.cbrt.s", "s/op", "lower"),
    ("modular.ModularContext.create.calls", "count/op", "lower"),
    ("modular.ModularContext.create.s", "s/op", "lower"),
    ("modular.schlafli_w.calls", "count/op", "lower"),
    ("modular.schlafli_w.s", "s/op", "lower"),
    ("modular.recover_pair.s", "s/op", "lower"),
    ("modular.recover_pair.errors", "count/op", "lower"),
    ("modular.j_invariant.calls", "count/op", "lower"),
    ("modular.j_invariant.s", "s/op", "lower"),
    ("modular.verify_tower.s", "s/op", "lower"),
    ("modular.weber_product_selftest.s", "s/op", "lower"),
    ("bench.failed_ratio", "ratio", "lower"),
    ("trace.ops_per_s_untraced", "1/s", "higher"),
    ("trace.ops_per_s_traced", "1/s", "higher"),
    ("trace.overhead_ops_per_s", "1/s", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(tracer: Tracer, n_ops: int) -> Dict[str, float]:
    """Per-layer values from the spans and counters of ``n_ops`` traced
    operations (ids 1..n_ops) and the set-up (id 0).  Metrics that need
    numbers from outside the tracer (child CPU, failures, overhead) are
    filled in by the caller."""
    names, ops, self_s = tracer.self_times()
    traced = ops >= 1
    n_names = len(tracer.span_names)
    calls = np.bincount(names[traced], minlength=n_names)
    self_total = np.bincount(names[traced], weights=self_s[traced], minlength=n_names)
    setup_self = np.bincount(names[ops == 0], weights=self_s[ops == 0], minlength=n_names)
    idx = {name: i for i, name in enumerate(tracer.span_names)}
    c = tracer.counters

    def per_op(x):
        return float(x) / n_ops

    values: Dict[str, float] = {}
    for name in idx:
        values[name + ".calls"] = per_op(calls[idx[name]])
        values[name + ".s"] = per_op(self_total[idx[name]])
    values["maps.identities.s"] = per_op(sum(self_total[idx[n]] for n in MAP_IDENTITIES))
    values["curves.paper_points.s"] = float(setup_self[idx["curves.paper_points"]])
    for key in ("cli.checks.count", "cli.checks.failed",
                "search.search_ks.scanned", "search.search_ks.found",
                "search.search_integral.scanned",
                "modular.recover_pair.errors", "maps.domain_errors"):
        values[key] = per_op(c.get(key, 0))
    found = c.get("search.search_ks.found", 0) + c.get("search.search_integral.found", 0)
    scanned = c.get("search.search_ks.scanned", 0) + c.get("search.search_integral.scanned", 0)
    values["search.hit_ratio"] = _ratio(found, scanned)
    values["kernel.rational_sqrt.square_ratio"] = _ratio(
        c.get("kernel.rational_sqrt.squares", 0), calls[idx["kernel.rational_sqrt"]])
    return values
