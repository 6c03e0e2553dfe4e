"""In-memory span tracer for the cikit benchmark.

Spans are recorded from outside the library: every public function of a
layer module is replaced, in every ``cikit.*`` namespace that binds it, by a
wrapper that records a span around the call.  Names bound through
``from .x import y`` are separate references, so the replacement goes by
identity over all module namespaces, not only the defining one.

A span is ``[name, layer, parent, op, start, end, info]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``op`` the benchmark operation
id, ``info`` an optional dict a probe filled from the call's arguments or
result.  Self time is a span's duration minus the durations of its direct
children; calls nest strictly on one thread, so children never overlap.
"""

from __future__ import annotations

import concurrent.futures
import functools
import inspect
import json
import os
import sys
import time

# The library's layers, in call order from the bottom up.  ``poly`` and
# ``fields`` are not layers: their arithmetic counts as self time of the
# layer that drives it.
LAYER_MODULES = {
    "linalg": "cikit.linalg",
    "groebner": "cikit.groebner",
    "resolution": "cikit.resolution",
    "koszul": "cikit.koszul",
    "dgmodel": "cikit.dgmodel",
    "homlie": "cikit.homlie",
    "conormal": "cikit.conormal",
    "harness": "cikit.harness",
}

NAME, LAYER, PARENT, OP, START, END, INFO = range(7)


def matrix_cells(args) -> int:
    """Sum of rows x cols over the arguments that are matrices (sequences
    of row sequences)."""
    cells = 0
    for a in args:
        if isinstance(a, (list, tuple)) and a and isinstance(a[0], (list, tuple)):
            cells += len(a) * len(a[0])
    return cells


def _cells_probe(args, kwargs, result):
    return {"cells": matrix_cells(args)}


def _h1_probe(args, kwargs, result):
    ideal = args[0]
    degree_bound = args[1] if len(args) > 1 else kwargs["degree_bound"]
    ring = ideal.ring
    key = (ring.field.spec_str(), tuple(ring.names), tuple(str(g) for g in ideal.generators),
           degree_bound)
    return {"key": repr(key)}


def _lookup_probe(args, kwargs, result):
    return {"dir": args[0], "hit": result is not None}


def _insert_probe(args, kwargs, result):
    return {"dir": args[0], "key": args[1]}


PROBES = {
    "harness.cache_lookup": _lookup_probe,
    "harness.cache_insert": _insert_probe,
    "koszul.koszul_h1": _h1_probe,
}


class Tracer:
    """Collects spans while ``enabled``; one instance per benchmark process."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = None
        self.enabled = False
        self._patched: list = []  # (namespace, attribute, original)
        # pool workers inherit the patched modules; they must not record
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self):
        self.enabled = False

    # -- recording -----------------------------------------------------------

    def span(self, name, layer, fn, args, kwargs, probe=None):
        spans = self.spans
        stack = self.stack
        rec = [name, layer, stack[-1] if stack else -1, self.op, 0.0, 0.0, None]
        stack.append(len(spans))
        spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[END] = time.perf_counter()
            stack.pop()
        if probe is not None:
            rec[INFO] = probe(args, kwargs, result)
        return result

    def wrap(self, fn, layer, name, probe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            return tracer.span(name, layer, fn, args, kwargs, probe)

        return traced

    def begin_op(self, op_id):
        """Open the root span of one benchmark operation; returns its index."""
        self.op = op_id
        idx = len(self.spans)
        self.spans.append(["bench.op", "bench", -1, op_id, time.perf_counter(), 0.0, None])
        self.stack.append(idx)
        return idx

    def end_op(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self.stack.pop()
        self.op = None

    # -- installation ----------------------------------------------------------

    def install(self):
        """Replace every layer function in every loaded ``cikit.*`` module."""
        from cikit import _rowred_py, linalg

        wrappers = {}
        for layer, modname in LAYER_MODULES.items():
            mod = sys.modules[modname]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == modname):
                    name = f"{layer}.{attr}"
                    probe = PROBES.get(name, _cells_probe if layer == "linalg" else None)
                    wrappers[id(obj)] = (obj, self.wrap(obj, layer, name, probe))
        for modname, mod in list(sys.modules.items()):
            if modname == "cikit" or modname.startswith("cikit."):
                for attr, obj in list(vars(mod).items()):
                    hit = wrappers.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        self._patch(mod, attr, hit[1])
        # the row-reduction kernels are reached as attributes of linalg._impl
        # (the compiled module when built, else _rowred_py)
        kernel_names = [a for a, o in vars(_rowred_py).items()
                        if inspect.isfunction(o) and not a.startswith("_")
                        and o.__module__ == _rowred_py.__name__]
        for mod in {id(m): m for m in (_rowred_py, linalg._impl)}.values():
            for attr in kernel_names:
                fn = getattr(mod, attr)
                self._patch(mod, attr, self.wrap(fn, "kernel", f"kernel.{attr}", _cells_probe))
        self._patch(concurrent.futures, "ProcessPoolExecutor", self._counting_pool())
        self.enabled = True

    def uninstall(self):
        self.enabled = False
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def _patch(self, ns, attr, value):
        self._patched.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, value)

    def _counting_pool(self):
        tracer = self
        base = concurrent.futures.ProcessPoolExecutor

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                init = super().__init__
                if tracer.enabled:
                    tracer.span("harness.pool_start", "harness", init, args, kwargs)
                else:
                    init(*args, **kwargs)

        return CountingPool

    # -- output ----------------------------------------------------------------

    def write(self, path, header):
        """One JSON line with ``header`` (the run's description), then one per span."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


SYZYGY = {"groebner.syzygies", "groebner.syzygy_generators", "groebner.first_syzygy_degree"}
SELF_LAYERS = ("linalg", "kernel", "groebner", "resolution", "koszul", "dgmodel", "homlie",
               "conormal", "harness")
ACCUMULATED = ("linalg.calls", "linalg.cells", "kernel.calls", "kernel.cells",
          "groebner.syzygy_self_s", "groebner.syzygy_calls", "groebner.buchberger_s",
          "groebner.buchberger_calls", "dgmodel.model_calls", "koszul.h1_calls",
          "harness.cache_lookups", "harness.cache_hits", "harness.cache_inserts",
          "harness.pool_starts", "harness.dup_computed", "trace.untraced_s")


def layer_metrics(spans, selfs, lo, hi):
    """Per-layer metrics of the spans ``spans[lo:hi]`` (one pass), given the
    self times of all spans.  ``calls`` and ``cells`` count only calls that
    enter a layer from outside it, so nested calls are not counted twice."""
    m = {f"{layer}.self_s": 0.0 for layer in SELF_LAYERS}
    for key in ACCUMULATED:
        m[key] = 0
    h1_keys = set()
    inserted = set()
    inserts_by_call: dict = {}
    for i in range(lo, hi):
        s, self_s = spans[i], selfs[i]
        name, layer, parent = s[NAME], s[LAYER], s[PARENT]
        ps = spans[parent] if parent >= 0 else None
        if layer == "bench":
            m["trace.untraced_s"] += self_s
            continue
        m[f"{layer}.self_s"] += self_s
        if layer in ("linalg", "kernel") and (ps is None or ps[LAYER] != layer):
            m[f"{layer}.calls"] += 1
            m[f"{layer}.cells"] += s[INFO]["cells"]
        if name in SYZYGY:
            m["groebner.syzygy_self_s"] += self_s
            if ps is None or ps[NAME] not in SYZYGY:
                m["groebner.syzygy_calls"] += 1
        elif name == "groebner.buchberger":
            m["groebner.buchberger_s"] += s[END] - s[START]
            m["groebner.buchberger_calls"] += 1
        elif name == "dgmodel.build_minimal_model":
            m["dgmodel.model_calls"] += 1
        elif name == "koszul.koszul_h1":
            m["koszul.h1_calls"] += 1
            h1_keys.add(s[INFO]["key"])
        elif name == "harness.cache_lookup" and s[INFO]["dir"]:
            m["harness.cache_lookups"] += 1
            m["harness.cache_hits"] += s[INFO]["hit"]
        elif name == "harness.cache_insert":
            info = s[INFO]
            if info["dir"] and (info["dir"], info["key"]) not in inserted:
                inserted.add((info["dir"], info["key"]))
                m["harness.cache_inserts"] += 1
            inserts_by_call.setdefault(parent, []).append(info["key"])
        elif name == "harness.pool_start":
            m["harness.pool_starts"] += 1
    for keys in inserts_by_call.values():
        m["harness.dup_computed"] += len(keys) - len(set(keys))
    calls = m["koszul.h1_calls"]
    m["koszul.h1_distinct_ratio"] = len(h1_keys) / calls if calls else 0.0
    lookups = m["harness.cache_lookups"]
    m["harness.cache_hit_ratio"] = m["harness.cache_hits"] / lookups if lookups else 0.0
    return m
