"""Tests of the benchmark's own code: tracer and speed-gauge arithmetic,
tracer installation, and determinism of the generated inputs.

    python3 -m pytest cibench
"""

import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def span(name, layer, parent, start, end, info=None):
    return [name, layer, parent, 0, start, end, info]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("bench.op", "bench", -1, 0.0, 10.0),
        span("groebner.syzygies", "groebner", 0, 1.0, 4.0),
        span("linalg.rref", "linalg", 1, 2.0, 3.0, {"cells": 6}),
        span("linalg.rank", "linalg", 0, 5.0, 9.0, {"cells": 4}),
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_count_calls_entering_a_layer_once():
    spans = [
        span("bench.op", "bench", -1, 0.0, 10.0),
        span("linalg.nullspace", "linalg", 0, 1.0, 5.0, {"cells": 12}),
        span("linalg.rref", "linalg", 1, 2.0, 4.0, {"cells": 12}),
        span("kernel.rref_fp", "kernel", 2, 2.5, 3.5, {"cells": 12}),
        span("koszul.koszul_h1", "koszul", 0, 6.0, 7.0, {"key": "a"}),
        span("koszul.koszul_h1", "koszul", 0, 7.0, 8.0, {"key": "a"}),
        span("harness.run_corpus", "harness", 0, 8.0, 9.5),
        span("harness.cache_lookup", "harness", 6, 8.0, 8.1, {"dir": "c", "hit": True}),
        span("harness.cache_lookup", "harness", 6, 8.1, 8.2, {"dir": "c", "hit": False}),
        span("harness.cache_insert", "harness", 6, 8.3, 8.4, {"dir": "c", "key": "k"}),
        span("harness.cache_insert", "harness", 6, 8.4, 8.5, {"dir": "c", "key": "k"}),
    ]
    m = tracer.layer_metrics(spans, tracer.self_times(spans), 0, len(spans))
    assert (m["linalg.calls"], m["linalg.cells"]) == (1, 12)
    assert (m["kernel.calls"], m["kernel.cells"]) == (1, 12)
    assert m["linalg.self_s"] == 3.0  # 4 s in linalg spans minus 1 s in the kernel
    assert (m["koszul.h1_calls"], m["koszul.h1_distinct_ratio"]) == (2, 0.5)
    assert (m["harness.cache_lookups"], m["harness.cache_hits"]) == (2, 1)
    assert m["harness.cache_hit_ratio"] == 0.5
    assert (m["harness.cache_inserts"], m["harness.dup_computed"]) == (1, 1)
    assert m["trace.untraced_s"] == 10.0 - 4.0 - 1.0 - 1.0 - 1.5


def test_tracer_wraps_every_binding_and_restores_them():
    from cikit import _rowred_py, harness, koszul
    from cikit.fields import QQ
    from cikit.groebner import Ideal
    from cikit.poly import PolyRing, parse_poly_list

    original = koszul.koszul_h1
    assert harness.koszul_h1 is original
    tr = tracer.Tracer()
    tr.install()
    try:
        assert koszul.koszul_h1 is not original
        assert harness.koszul_h1 is koszul.koszul_h1
        ring = PolyRing(QQ, ["x", "y"])
        idx = tr.begin_op(0)
        harness.ci_certificate(Ideal(ring, parse_poly_list(ring, "x^2, y^2")), 6)
        tr.end_op(idx)
    finally:
        tr.uninstall()
    assert koszul.koszul_h1 is original and harness.koszul_h1 is original
    assert _rowred_py.rref_int.__module__ == _rowred_py.__name__
    layers = {s[tracer.LAYER] for s in tr.spans}
    assert {"harness", "koszul", "groebner", "linalg", "kernel"} <= layers
    selfs = tracer.self_times(tr.spans)
    assert all(s >= 0 for s in selfs)
    assert abs(sum(selfs) - (tr.spans[0][tracer.END] - tr.spans[0][tracer.START])) < 1e-9


def test_time_at_reference_speed_divides_by_the_mean_slowdown_around_it():
    step = speed.INTERVAL_S
    g = speed.SpeedGauge()
    # one sample ends just before [1, 2], one runs inside it, one ends just
    # after it and one long after
    for start, end, slowdown in [(1 - step / 2 - 0.01, 1 - step / 2, 2.0), (1.5, 1.51, 3.0),
                                 (2 + step / 2 - 0.01, 2 + step / 2, 1.0),
                                 (2 + 3 * step, 2 + 3 * step + 0.01, 9.0)]:
        g.starts.append(start)
        g.ends.append(end)
        g.slowdowns.append(slowdown)
    at_ref, raw = g.at_reference(1.0, 2.0)
    assert abs(raw - 0.99) < 1e-12  # the sample inside is not operation time
    assert abs(at_ref - 0.99 / 2.0) < 1e-12


def test_inputs_are_determined_by_the_seed():
    for w in workloads.WORKLOADS:
        a = workloads.build_inputs(w, 3, ROOT)
        assert a == workloads.build_inputs(w, 3, ROOT)
        assert a != workloads.build_inputs(w, 4, ROOT)


def test_workload_composition_does_not_depend_on_the_seed():
    for seed in (1, 2):
        q = workloads.build_inputs("queries", seed, ROOT)
        cells = sorted((r["cmd"], r["field"], r["ring"]) for r in q)
        assert cells == sorted((r["cmd"], r["field"], r["ring"])
                               for r in workloads.build_inputs("queries", 9, ROOT))
        # only coefficients change, so the known Buchberger defect breaks the
        # same requests at every seed
        supports = sorted((r["cmd"], r["field"], re.findall(r"[a-z][a-z0-9^*]*", r["ideal"]))
                          for r in q)
        assert supports == sorted((r["cmd"], r["field"], re.findall(r"[a-z][a-z0-9^*]*",
                                                                      r["ideal"]))
                                  for r in workloads.build_inputs("queries", 9, ROOT))
        batches = workloads.build_inputs("corpus-stream", seed, ROOT)
        flat = [line for b in batches for line in b]
        fresh = len(workloads.STREAM_ENTRIES) * len(workloads.STREAM_PRIMES)
        assert len(set(flat)) == fresh
        assert len(flat) == fresh + workloads.STREAM_BATCHES
        within = sum(len(set(b)) < len(b) for b in batches)
        assert within == workloads.STREAM_REPEATS_WITHIN
